#ifndef FREEHGC_GRAPH_HETERO_GRAPH_H_
#define FREEHGC_GRAPH_HETERO_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "sparse/csr.h"

namespace freehgc {

/// Identifier of a node type within a HeteroGraph (index into the type
/// registry).
using TypeId = int32_t;

/// Identifier of a relation (edge type).
using RelationId = int32_t;

/// One directed edge type: src-type nodes -> dst-type nodes, stored as a
/// CSR adjacency with shape (count(src_type), count(dst_type)).
struct Relation {
  std::string name;
  TypeId src_type = -1;
  TypeId dst_type = -1;
  CsrMatrix adj;
};

/// Role of a node type in the vertical hierarchy of Fig. 5 of the paper:
/// the target type is the root; other types directly connected to the root
/// are fathers; types further away are leaves.
enum class TypeRole { kRoot, kFather, kLeaf };

/// A heterogeneous graph G = (V, E, phi, psi) with per-type features and
/// target-type labels, matching the paper's formulation (Section II-A).
///
/// Node ids are local to their type: type t has nodes 0..NodeCount(t)-1.
/// Relation and feature arrays are either owned or views of a v3
/// container (a file mapping or an adopted upload buffer) that the views
/// keep alive. A copy deep-copies owned arrays and shares views; the
/// graph is movable.
class HeteroGraph {
 public:
  HeteroGraph() = default;

  // --- Construction -----------------------------------------------------

  /// Registers a node type with `count` nodes; returns its TypeId.
  /// Fails if the name is already registered or count is negative.
  Result<TypeId> AddNodeType(const std::string& name, int32_t count);

  /// Registers a directed edge type. The adjacency shape must be
  /// (count(src), count(dst)). Returns the RelationId.
  Result<RelationId> AddRelation(const std::string& name, TypeId src,
                                 TypeId dst, CsrMatrix adj);

  /// For every relation lacking a reverse counterpart (a relation
  /// dst -> src), adds "rev_<name>" with the transposed adjacency. HGNN
  /// message passing and meta-path enumeration need both directions.
  /// The per-relation transposes run concurrently on `ctx`; the new
  /// relations are registered in original relation order regardless of
  /// thread count.
  void EnsureReverseRelations(exec::ExecContext* ctx = nullptr);

  /// Sets the feature matrix of a type; rows must equal the node count.
  Status SetFeatures(TypeId type, Matrix features);

  /// Declares the target (root) type, its labels (one per node, in
  /// [0, num_classes)), and the class count.
  Status SetTarget(TypeId type, std::vector<int32_t> labels,
                   int32_t num_classes);

  /// Sets the train/val/test split over target-type node ids.
  Status SetSplit(std::vector<int32_t> train, std::vector<int32_t> val,
                  std::vector<int32_t> test);

  // --- Inspection --------------------------------------------------------

  int32_t NumNodeTypes() const {
    return static_cast<int32_t>(type_names_.size());
  }
  int32_t NumRelations() const {
    return static_cast<int32_t>(relations_.size());
  }
  const std::string& TypeName(TypeId t) const { return type_names_[t]; }
  int32_t NodeCount(TypeId t) const { return type_counts_[t]; }

  /// Looks up a type by name.
  Result<TypeId> TypeByName(const std::string& name) const;

  const Relation& relation(RelationId r) const { return relations_[r]; }

  /// Relation ids whose src type is `t`.
  std::vector<RelationId> RelationsFrom(TypeId t) const;

  /// Relation ids whose dst type is `t`.
  std::vector<RelationId> RelationsTo(TypeId t) const;

  /// Feature matrix of a type (empty Matrix when unset).
  const Matrix& Features(TypeId t) const { return features_[t]; }
  bool HasFeatures(TypeId t) const { return !features_[t].empty(); }

  TypeId target_type() const { return target_type_; }
  const std::vector<int32_t>& labels() const { return labels_; }
  int32_t num_classes() const { return num_classes_; }
  const std::vector<int32_t>& train_index() const { return train_index_; }
  const std::vector<int32_t>& val_index() const { return val_index_; }
  const std::vector<int32_t>& test_index() const { return test_index_; }

  /// Total node count over all types.
  int64_t TotalNodes() const;

  /// Total directed edge count over all relations.
  int64_t TotalEdges() const;

  /// Approximate storage footprint (adjacency + features + labels), used
  /// by the Table VII storage comparison. Counts logical bytes, identical
  /// for owned and mapped backings.
  size_t MemoryBytes() const;

  /// Heap bytes actually owned by this graph: ~MemoryBytes() for a heap
  /// build; only labels/splits for a mapped v3 graph (the arrays live in
  /// the page cache); labels/splits plus the whole container for an
  /// adopted one (its arrays view a heap buffer it pins). Feeds the serve
  /// layer's store.resident_bytes gauge.
  size_t ResidentHeapBytes() const;

  /// True when the relation or feature arrays view a mapped container
  /// file. An adopted container's views are heap memory, so it is not
  /// mapped: the store neither counts it against --resident-budget nor
  /// evicts it.
  bool IsMapped() const;

  /// Declares that this graph's array views point into a heap buffer of
  /// `bytes` bytes that they pin (an adopted v3 container, see
  /// AdoptHeteroGraph), so ResidentHeapBytes counts it and IsMapped is
  /// false.
  void SetAdoptedBufferBytes(size_t bytes) { adopted_bytes_ = bytes; }

  /// 64-bit content hash (ContentHash, common/content_hash.h) over
  /// everything that affects computation results: type names/counts,
  /// relations (name, endpoints, full CSR arrays), features, labels,
  /// class count and splits. Two graphs with equal
  /// fingerprints are treated as interchangeable by pipeline::ArtifactCache
  /// (the 64-bit collision risk is accepted; see DESIGN.md, "Pipeline").
  /// Costs one linear pass over the graph on first use; the value is then
  /// memoized with the graph (copies carry it, every mutator clears it).
  /// Thread-safe on a shared const graph.
  uint64_t ContentFingerprint() const;

  /// Seeds ContentFingerprint's memo with a value already known to hash
  /// this content: the fingerprint a verified upload was recomputed to,
  /// or, for a container mapped back from the spool, its CRC-covered
  /// header. The first lookup then skips the pass. The caller vouches
  /// for the value.
  void SeedContentFingerprint(uint64_t fingerprint) {
    fingerprint_.Set(fingerprint);
  }

  /// Classifies every type into root/father/leaf by BFS distance from the
  /// target type over the (undirected) type-connectivity graph, per Fig. 5.
  /// Distance 0 = root, 1 = father, >=2 (or unreachable) = leaf.
  std::vector<TypeRole> ClassifySchema() const;

  /// Structural and bookkeeping consistency check. OK when every relation
  /// shape matches type counts, labels cover the target type, splits are
  /// in range, and feature row counts match.
  Status Validate() const;

  // --- Transformation ----------------------------------------------------

  /// Builds the induced subgraph keeping, for each type t, exactly the
  /// nodes in keep[t] (local ids, unique). Relations are restricted and
  /// remapped, features gathered, labels/splits rebuilt (all kept target
  /// nodes become the training set, matching the paper's protocol of
  /// training on the condensed graph). keep.size() must equal
  /// NumNodeTypes().
  Result<HeteroGraph> InducedSubgraph(
      const std::vector<std::vector<int32_t>>& keep) const;

 private:
  std::vector<std::string> type_names_;
  std::vector<int32_t> type_counts_;
  std::unordered_map<std::string, TypeId> type_index_;
  std::vector<Relation> relations_;
  std::vector<Matrix> features_;
  TypeId target_type_ = -1;
  std::vector<int32_t> labels_;
  int32_t num_classes_ = 0;
  std::vector<int32_t> train_index_;
  std::vector<int32_t> val_index_;
  std::vector<int32_t> test_index_;
  /// Size of the adopted heap buffer the arrays view; 0 when none.
  size_t adopted_bytes_ = 0;

  /// ContentFingerprint's memo; 0 = not computed. A copy carries the
  /// value (same content); a move hands it over and clears the source.
  struct FingerprintMemo {
    mutable std::atomic<uint64_t> value{0};
    FingerprintMemo() = default;
    FingerprintMemo(const FingerprintMemo& o) : value(o.Load()) {}
    FingerprintMemo(FingerprintMemo&& o) noexcept : value(o.Take()) {}
    FingerprintMemo& operator=(const FingerprintMemo& o) {
      Set(o.Load());
      return *this;
    }
    FingerprintMemo& operator=(FingerprintMemo&& o) noexcept {
      Set(o.Take());
      return *this;
    }
    uint64_t Load() const { return value.load(std::memory_order_relaxed); }
    uint64_t Take() { return value.exchange(0, std::memory_order_relaxed); }
    void Set(uint64_t v) const { value.store(v, std::memory_order_relaxed); }
    void Clear() { Set(0); }
  };
  FingerprintMemo fingerprint_;
};

}  // namespace freehgc

#endif  // FREEHGC_GRAPH_HETERO_GRAPH_H_
