#include "graph/hetero_graph.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/content_hash.h"
#include "common/string_util.h"
#include "sparse/ops.h"

namespace freehgc {

Result<TypeId> HeteroGraph::AddNodeType(const std::string& name,
                                        int32_t count) {
  if (count < 0) return Status::InvalidArgument("negative node count");
  if (type_index_.count(name) > 0) {
    return Status::InvalidArgument("duplicate node type: " + name);
  }
  fingerprint_.Clear();
  const TypeId id = static_cast<TypeId>(type_names_.size());
  type_names_.push_back(name);
  type_counts_.push_back(count);
  type_index_[name] = id;
  features_.emplace_back();
  return id;
}

Result<RelationId> HeteroGraph::AddRelation(const std::string& name,
                                            TypeId src, TypeId dst,
                                            CsrMatrix adj) {
  if (src < 0 || src >= NumNodeTypes() || dst < 0 || dst >= NumNodeTypes()) {
    return Status::InvalidArgument("relation endpoint type out of range");
  }
  if (adj.rows() != NodeCount(src) || adj.cols() != NodeCount(dst)) {
    return Status::InvalidArgument(StrFormat(
        "relation '%s' adjacency %dx%d does not match type counts %dx%d",
        name.c_str(), adj.rows(), adj.cols(), NodeCount(src),
        NodeCount(dst)));
  }
  fingerprint_.Clear();
  const RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back({name, src, dst, std::move(adj)});
  return id;
}

void HeteroGraph::EnsureReverseRelations(exec::ExecContext* ctx) {
  fingerprint_.Clear();
  const size_t original = relations_.size();
  // Candidates: relations with no schema-level reverse. Self-relations
  // (src == dst) are their own reverse only when symmetric, so they stay
  // candidates and the symmetry check happens on the computed transpose.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < original; ++i) {
    const TypeId src = relations_[i].src_type;
    const TypeId dst = relations_[i].dst_type;
    bool has_reverse = false;
    if (src != dst) {
      for (size_t j = 0; j < original; ++j) {
        if (j != i && relations_[j].src_type == dst &&
            relations_[j].dst_type == src) {
          has_reverse = true;
          break;
        }
      }
    }
    if (!has_reverse) candidates.push_back(i);
  }
  // Transposes are independent: one candidate per chunk, staged so the
  // append below preserves original relation order for any thread count.
  std::vector<CsrMatrix> transposed(candidates.size());
  exec::Resolve(ctx).ParallelFor(
      static_cast<int64_t>(candidates.size()), 1,
      [&](int64_t begin, int64_t end, exec::Workspace&) {
        for (int64_t k = begin; k < end; ++k) {
          transposed[static_cast<size_t>(k)] =
              sparse::Transpose(relations_[candidates[static_cast<size_t>(k)]]
                                    .adj);
        }
      });
  for (size_t k = 0; k < candidates.size(); ++k) {
    const size_t i = candidates[k];
    const TypeId src = relations_[i].src_type;
    const TypeId dst = relations_[i].dst_type;
    if (src == dst && transposed[k] == relations_[i].adj) continue;
    relations_.push_back(
        {"rev_" + relations_[i].name, dst, src, std::move(transposed[k])});
  }
}

Status HeteroGraph::SetFeatures(TypeId type, Matrix features) {
  if (type < 0 || type >= NumNodeTypes()) {
    return Status::InvalidArgument("type out of range");
  }
  if (features.rows() != NodeCount(type)) {
    return Status::InvalidArgument(
        StrFormat("feature rows %d != node count %d for type %s",
                  static_cast<int>(features.rows()), NodeCount(type),
                  TypeName(type).c_str()));
  }
  fingerprint_.Clear();
  features_[type] = std::move(features);
  return Status::OK();
}

Status HeteroGraph::SetTarget(TypeId type, std::vector<int32_t> labels,
                              int32_t num_classes) {
  if (type < 0 || type >= NumNodeTypes()) {
    return Status::InvalidArgument("target type out of range");
  }
  if (static_cast<int32_t>(labels.size()) != NodeCount(type)) {
    return Status::InvalidArgument("labels size != target node count");
  }
  for (int32_t y : labels) {
    if (y < 0 || y >= num_classes) {
      return Status::OutOfRange("label outside [0, num_classes)");
    }
  }
  fingerprint_.Clear();
  target_type_ = type;
  labels_ = std::move(labels);
  num_classes_ = num_classes;
  return Status::OK();
}

Status HeteroGraph::SetSplit(std::vector<int32_t> train,
                             std::vector<int32_t> val,
                             std::vector<int32_t> test) {
  if (target_type_ < 0) {
    return Status::FailedPrecondition("SetTarget must be called first");
  }
  const int32_t n = NodeCount(target_type_);
  for (const auto* split : {&train, &val, &test}) {
    for (int32_t v : *split) {
      if (v < 0 || v >= n) return Status::OutOfRange("split id out of range");
    }
  }
  fingerprint_.Clear();
  train_index_ = std::move(train);
  val_index_ = std::move(val);
  test_index_ = std::move(test);
  return Status::OK();
}

Result<TypeId> HeteroGraph::TypeByName(const std::string& name) const {
  auto it = type_index_.find(name);
  if (it == type_index_.end()) {
    return Status::NotFound("no node type named " + name);
  }
  return it->second;
}

std::vector<RelationId> HeteroGraph::RelationsFrom(TypeId t) const {
  std::vector<RelationId> out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].src_type == t) out.push_back(static_cast<RelationId>(i));
  }
  return out;
}

std::vector<RelationId> HeteroGraph::RelationsTo(TypeId t) const {
  std::vector<RelationId> out;
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].dst_type == t) out.push_back(static_cast<RelationId>(i));
  }
  return out;
}

int64_t HeteroGraph::TotalNodes() const {
  int64_t n = 0;
  for (int32_t c : type_counts_) n += c;
  return n;
}

int64_t HeteroGraph::TotalEdges() const {
  int64_t e = 0;
  for (const auto& r : relations_) e += r.adj.nnz();
  return e;
}

size_t HeteroGraph::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& r : relations_) bytes += r.adj.MemoryBytes();
  for (const auto& f : features_) {
    bytes += static_cast<size_t>(f.size()) * sizeof(float);
  }
  bytes += labels_.size() * sizeof(int32_t);
  return bytes;
}

size_t HeteroGraph::ResidentHeapBytes() const {
  size_t bytes = 0;
  for (const auto& r : relations_) bytes += r.adj.OwnedBytes();
  for (const auto& f : features_) bytes += f.OwnedBytes();
  bytes += labels_.size() * sizeof(int32_t);
  bytes += (train_index_.size() + val_index_.size() + test_index_.size()) *
           sizeof(int32_t);
  return bytes + adopted_bytes_;
}

bool HeteroGraph::IsMapped() const {
  if (adopted_bytes_ > 0) return false;
  for (const auto& r : relations_) {
    if (r.adj.is_mapped()) return true;
  }
  for (const auto& f : features_) {
    if (f.is_mapped()) return true;
  }
  return false;
}

uint64_t HeteroGraph::ContentFingerprint() const {
  if (const uint64_t memo = fingerprint_.Load(); memo != 0) return memo;
  // The byte sequence below is the canonical graph identity; the v3
  // container stores this exact hash in its header (computed while
  // streaming) so a mapped registration can skip the recompute.
  ContentHash f;
  f.Tag(0x01);
  for (size_t t = 0; t < type_names_.size(); ++t) {
    f.Str(type_names_[t]);
    f.Pod(type_counts_[t]);
  }
  f.Tag(0x02);
  for (const auto& r : relations_) {
    f.Str(r.name);
    f.Pod(r.src_type);
    f.Pod(r.dst_type);
    f.Span(r.adj.indptr());
    f.Span(r.adj.indices());
    f.Span(r.adj.values());
  }
  f.Tag(0x03);
  for (const auto& feat : features_) {
    f.Pod(feat.rows());
    f.Pod(feat.cols());
    f.Bytes(feat.data(), static_cast<size_t>(feat.size()) * sizeof(float));
  }
  f.Tag(0x04);
  f.Pod(target_type_);
  f.Pod(num_classes_);
  f.Vec(labels_);
  f.Tag(0x05);
  f.Vec(train_index_);
  f.Vec(val_index_);
  f.Vec(test_index_);
  const uint64_t h = f.Digest();
  fingerprint_.Set(h);
  return h;
}

std::vector<TypeRole> HeteroGraph::ClassifySchema() const {
  const int32_t t = NumNodeTypes();
  std::vector<int32_t> dist(static_cast<size_t>(t), -1);
  if (target_type_ >= 0) {
    std::deque<TypeId> queue = {target_type_};
    dist[static_cast<size_t>(target_type_)] = 0;
    while (!queue.empty()) {
      const TypeId u = queue.front();
      queue.pop_front();
      for (const auto& r : relations_) {
        TypeId v = -1;
        if (r.src_type == u) v = r.dst_type;
        else if (r.dst_type == u) v = r.src_type;
        else continue;
        if (dist[static_cast<size_t>(v)] < 0) {
          dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  // A father type is a *bridge*: it sits between the root and deeper
  // types (Fig. 5: "the father type is a bridge connecting the root type
  // and the leaf type"). Terminal types — no neighbor farther from the
  // root than themselves — are leaves even when directly adjacent to the
  // root (e.g. ACM's author/subject/term, which the paper condenses with
  // information-loss minimization).
  std::vector<TypeRole> roles(static_cast<size_t>(t), TypeRole::kLeaf);
  for (int32_t i = 0; i < t; ++i) {
    const int32_t di = dist[static_cast<size_t>(i)];
    if (di == 0) {
      roles[static_cast<size_t>(i)] = TypeRole::kRoot;
      continue;
    }
    if (di < 0) continue;  // disconnected from the target: leaf
    bool has_deeper_child = false;
    for (const auto& r : relations_) {
      TypeId other = -1;
      if (r.src_type == i) other = r.dst_type;
      else if (r.dst_type == i) other = r.src_type;
      else continue;
      if (dist[static_cast<size_t>(other)] > di) {
        has_deeper_child = true;
        break;
      }
    }
    if (has_deeper_child) roles[static_cast<size_t>(i)] = TypeRole::kFather;
  }
  return roles;
}

Status HeteroGraph::Validate() const {
  for (const auto& r : relations_) {
    if (r.src_type < 0 || r.src_type >= NumNodeTypes() || r.dst_type < 0 ||
        r.dst_type >= NumNodeTypes()) {
      return Status::Internal("relation endpoint out of range");
    }
    if (r.adj.rows() != NodeCount(r.src_type) ||
        r.adj.cols() != NodeCount(r.dst_type)) {
      return Status::Internal("relation '" + r.name + "' shape mismatch");
    }
  }
  for (TypeId t = 0; t < NumNodeTypes(); ++t) {
    if (HasFeatures(t) && features_[t].rows() != NodeCount(t)) {
      return Status::Internal("feature rows mismatch for " + TypeName(t));
    }
  }
  if (target_type_ >= 0) {
    if (static_cast<int32_t>(labels_.size()) != NodeCount(target_type_)) {
      return Status::Internal("labels size mismatch");
    }
    const int32_t n = NodeCount(target_type_);
    for (const auto* split : {&train_index_, &val_index_, &test_index_}) {
      for (int32_t v : *split) {
        if (v < 0 || v >= n) return Status::Internal("split out of range");
      }
    }
  }
  return Status::OK();
}

Result<HeteroGraph> HeteroGraph::InducedSubgraph(
    const std::vector<std::vector<int32_t>>& keep) const {
  if (static_cast<int32_t>(keep.size()) != NumNodeTypes()) {
    return Status::InvalidArgument("keep lists must cover every node type");
  }
  for (TypeId t = 0; t < NumNodeTypes(); ++t) {
    std::unordered_set<int32_t> seen;
    for (int32_t v : keep[static_cast<size_t>(t)]) {
      if (v < 0 || v >= NodeCount(t)) {
        return Status::OutOfRange(
            StrFormat("keep id %d out of range for type %s", v,
                      TypeName(t).c_str()));
      }
      if (!seen.insert(v).second) {
        return Status::InvalidArgument("duplicate keep id for type " +
                                       TypeName(t));
      }
    }
  }

  HeteroGraph out;
  for (TypeId t = 0; t < NumNodeTypes(); ++t) {
    auto added = out.AddNodeType(
        TypeName(t), static_cast<int32_t>(keep[static_cast<size_t>(t)].size()));
    if (!added.ok()) return added.status();
  }
  for (const auto& r : relations_) {
    CsrMatrix sub = sparse::Submatrix(
        r.adj, keep[static_cast<size_t>(r.src_type)],
        keep[static_cast<size_t>(r.dst_type)]);
    auto added = out.AddRelation(r.name, r.src_type, r.dst_type,
                                 std::move(sub));
    if (!added.ok()) return added.status();
  }
  for (TypeId t = 0; t < NumNodeTypes(); ++t) {
    if (HasFeatures(t)) {
      FREEHGC_RETURN_IF_ERROR(out.SetFeatures(
          t, features_[static_cast<size_t>(t)].GatherRows(
                 keep[static_cast<size_t>(t)])));
    }
  }
  if (target_type_ >= 0) {
    const auto& target_keep = keep[static_cast<size_t>(target_type_)];
    std::vector<int32_t> new_labels;
    new_labels.reserve(target_keep.size());
    for (int32_t v : target_keep) {
      new_labels.push_back(labels_[static_cast<size_t>(v)]);
    }
    FREEHGC_RETURN_IF_ERROR(
        out.SetTarget(target_type_, std::move(new_labels), num_classes_));
    // Every kept target node is a training example in the condensed graph.
    std::vector<int32_t> train(target_keep.size());
    for (size_t i = 0; i < target_keep.size(); ++i) {
      train[i] = static_cast<int32_t>(i);
    }
    FREEHGC_RETURN_IF_ERROR(out.SetSplit(std::move(train), {}, {}));
  }
  return out;
}

}  // namespace freehgc
