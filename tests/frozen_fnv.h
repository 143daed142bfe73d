#ifndef FREEHGC_TESTS_FROZEN_FNV_H_
#define FREEHGC_TESTS_FROZEN_FNV_H_

// The byte-serial FNV-1a hash the golden corpus was recorded with, frozen
// here so the corpus never moves with the library's own content hash.
// bench_container also times it as the reference load path's hash.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/hetero_graph.h"

namespace freehgc::testing_util {

/// FNV-1a over raw bytes, chained; structure separators are one-byte tags.
struct FrozenFnv {
  uint64_t h = 1469598103934665603ULL;

  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(T));
  }
  /// Length-prefixed array: u64 element count, then the raw bytes.
  template <typename T>
  void Span(std::span<const T> v) {
    Pod(static_cast<uint64_t>(v.size()));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Span(std::span<const T>(v));
  }
  void Str(const std::string& s) {
    Pod(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Tag(unsigned char t) { Bytes(&t, 1); }
};

/// FrozenFnv over a graph's canonical content: types, relations,
/// features, labels and split, in HeteroGraph::ContentFingerprint's byte
/// order. Independent of any container format.
inline uint64_t FrozenGraphFnv(const HeteroGraph& g) {
  FrozenFnv f;
  f.Tag(0x01);
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    f.Str(g.TypeName(t));
    f.Pod(g.NodeCount(t));
  }
  f.Tag(0x02);
  for (RelationId r = 0; r < g.NumRelations(); ++r) {
    const Relation& rel = g.relation(r);
    f.Str(rel.name);
    f.Pod(rel.src_type);
    f.Pod(rel.dst_type);
    f.Span(rel.adj.indptr());
    f.Span(rel.adj.indices());
    f.Span(rel.adj.values());
  }
  f.Tag(0x03);
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    const Matrix& feat = g.Features(t);
    f.Pod(feat.rows());
    f.Pod(feat.cols());
    f.Bytes(feat.data(), static_cast<size_t>(feat.size()) * sizeof(float));
  }
  f.Tag(0x04);
  f.Pod(g.target_type());
  f.Pod(g.num_classes());
  f.Vec(g.labels());
  f.Tag(0x05);
  f.Vec(g.train_index());
  f.Vec(g.val_index());
  f.Vec(g.test_index());
  return f.h;
}

}  // namespace freehgc::testing_util

#endif  // FREEHGC_TESTS_FROZEN_FNV_H_
