#ifndef FREEHGC_METAPATH_METAPATH_H_
#define FREEHGC_METAPATH_METAPATH_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "sparse/csr.h"

namespace freehgc {

/// One meta-path P = o_0 <- o_1 <- ... <- o_k: a walk over the relation
/// schema starting at `types[0]`. `relations[i]` connects types[i] (as src)
/// to types[i+1] (as dst).
struct MetaPath {
  std::vector<RelationId> relations;
  std::vector<TypeId> types;  // size() == relations.size() + 1

  int hops() const { return static_cast<int>(relations.size()); }
  TypeId start_type() const { return types.front(); }
  TypeId end_type() const { return types.back(); }

  /// Human-readable form like "paper-author-paper".
  std::string Name(const HeteroGraph& g) const;
};

/// The meta-path configuration (general meta-path generation model,
/// Section IV-A). The library's only declaration of these fields: stages
/// hand it on whole (EvalContext::options, core::FreeHgcOptions' base).
struct MetaPathOptions {
  /// Maximum number of hops K (paper hyper-parameter, Section V-B).
  int max_hops = 2;
  /// When > 0, each composed adjacency row keeps only this many
  /// largest-magnitude entries (budgeted densification for scalability).
  /// 0 = exact. Only selection composes; propagation ignores it.
  int64_t max_row_nnz = 512;
  /// Upper bound on the number of enumerated paths (safety valve for
  /// schemas with many relations, e.g. Freebase/AM). 0 = unlimited.
  int max_paths = 24;
};

/// Enumerates every meta-path of length 1..max_hops starting at `start`
/// by walking the relation schema (the paper's "general meta-paths
/// generation model": no expert-defined paths). Deterministic order
/// (DFS over relation ids).
std::vector<MetaPath> EnumerateMetaPaths(const HeteroGraph& g, TypeId start,
                                         const MetaPathOptions& opts);

/// Subset of `paths` whose end (source) type is `end`.
std::vector<MetaPath> FilterByEndType(const std::vector<MetaPath>& paths,
                                      TypeId end);

/// Composes the row-normalized meta-path adjacency of Eq. (1):
///   A_hat(P) = A_hat(r_0) * A_hat(r_1) * ... * A_hat(r_{k-1}).
/// Shape: (count(start_type), count(end_type)). The SpGEMM chain runs on
/// `ctx` (row-chunk parallel, bit-identical across thread counts).
///
/// `rows`, when non-null, restricts the product to those start-type rows
/// (any order, duplicates allowed): only they are kept in the first
/// factor, every other row comes out empty. Normalization, Gustavson
/// accumulation and the max_row_nnz truncation are all row-local, so
/// each kept row is byte-identical to the same row of the full product,
/// while the SpGEMM chain does work only for the kept rows.
CsrMatrix ComposeAdjacency(const HeteroGraph& g, const MetaPath& p,
                           int64_t max_row_nnz = 0,
                           exec::ExecContext* ctx = nullptr,
                           const std::vector<int32_t>* rows = nullptr);

/// Which start-type rows of a composed adjacency a caller reads.
enum class RowSet : uint8_t {
  /// Every row: the full product.
  kAll,
  /// Only the graph's train_index() rows (the candidate pool of target
  /// selection); every other row is empty.
  kTrain,
};

/// Borrowed memo of composed meta-path adjacencies. ComposeAdjacency is
/// deterministic and seed-independent, so its result can be shared across
/// every (method, ratio, seed) cell of a sweep. FreeHGC's selection stages
/// take a required AdjacencyCache and compose every path through it: a
/// cache miss is the only place selection composes an adjacency or
/// computes a diversity or a NIM block. The canonical implementation is
/// pipeline::ArtifactCache — declaring the interface here keeps core/hgnn
/// free of a pipeline dependency.
///
/// Pinning contract: the returned shared_ptr is a *pin*. The matrix stays
/// valid as long as the caller holds the pointer; a tiered cache may evict
/// (spill) an entry once every outstanding pin is released, so callers
/// keep the pin alive across every use of the matrix and drop it when
/// done. An unbudgeted cache simply never evicts (see DESIGN.md, "Tiered
/// artifact storage" for the ownership/invalidation rules).
class AdjacencyCache {
 public:
  virtual ~AdjacencyCache() = default;

  /// A pin of the composed adjacency of `p` over `g` at the given
  /// row-nnz budget, restricted to `rows` (computed via ComposeAdjacency
  /// on miss). Each row set is its own entry.
  virtual std::shared_ptr<const CsrMatrix> Composed(
      const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
      exec::ExecContext* ctx, RowSet rows) = 0;

  /// A pin of the per-path diversity of `group` (paths sharing start and
  /// end types, each composed at `max_row_nnz` over the train-pool rows,
  /// the only rows PathDiversity reads): PathDiversity of their composed
  /// adjacencies. It depends only on the graph and the group, never on a
  /// ratio or seed, so a cache keeps one entry per group.
  virtual std::shared_ptr<const CsrMatrix> Diversity(
      const HeteroGraph& g, const std::vector<MetaPath>& group,
      int64_t max_row_nnz, exec::ExecContext* ctx) = 0;

  /// A pin of NIM's PPR-ready block of `p` (Eq. 10):
  /// SymNormalize(BipartiteBlock(A)), where A is the full composed
  /// adjacency of `p` at `max_row_nnz`. Like a diversity, it depends only
  /// on the graph and the path, so a cache keeps one entry per path; a
  /// miss composes A without caching it.
  virtual std::shared_ptr<const CsrMatrix> NimBlock(
      const HeteroGraph& g, const MetaPath& p, int64_t max_row_nnz,
      exec::ExecContext* ctx) = 0;

  /// The full product: Composed(g, p, max_row_nnz, ctx, RowSet::kAll).
  std::shared_ptr<const CsrMatrix> Composed(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx) {
    return Composed(g, p, max_row_nnz, ctx, RowSet::kAll);
  }
};

/// Per-path mean pairwise Jaccard similarity (Eqs. 4-6): result[i][v] is
/// the mean, over every *other* path j, of
///   |RF_i(v) ∩ RF_j(v)| / |RF_i(v) ∪ RF_j(v)|
/// where RF_p(v) is the set of end-type nodes with an entry in row v of
/// path p's composed adjacency, i.e. J_hat(phi_i) evaluated per node. Two
/// empty sets have J = 1 (the paper's convention for |union| = 0). With a
/// single path the result is all zeros.
///
/// Row-parallel over nodes. Per node, each column's path bitmask (one
/// word per 64 paths, from the worker's Workspace) gives every pairwise
/// intersection in one sweep over each path's row; the sums are
/// bit-identical to reference::PerPathJaccardRef's pairwise merges.
std::vector<std::vector<float>> PerPathJaccard(
    const std::vector<const CsrMatrix*>& paths,
    exec::ExecContext* ctx = nullptr);

/// Per-path diversity 1 - J_hat (Eq. 7) on the train pool: row i holds
/// 1 - PerPathJaccard(group)[i][v] for every v in g.train_index(), one
/// entry per pool node in ascending node order (stored even when it is
/// 0). Target selection reads diversity only on pool nodes, so this is
/// all of Eq. 7 it needs. `group` holds the composed adjacencies of
/// paths from the target type.
CsrMatrix PathDiversity(const HeteroGraph& g,
                        const std::vector<const CsrMatrix*>& group,
                        exec::ExecContext* ctx = nullptr);

/// Jaccard similarity of two sorted index sets.
float JaccardOfSortedSets(std::span<const int32_t> a,
                          std::span<const int32_t> b);

namespace reference {

/// Sequential PerPathJaccard by pairwise sorted merges
/// (JaccardOfSortedSets), pairs in (i, j > i) order: the ground truth of
/// the differential tests and bench_kernels' `jaccard` row.
std::vector<std::vector<float>> PerPathJaccardRef(
    const std::vector<const CsrMatrix*>& paths);

}  // namespace reference

}  // namespace freehgc

#endif  // FREEHGC_METAPATH_METAPATH_H_
