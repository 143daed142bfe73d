#ifndef FREEHGC_CORE_FREEHGC_H_
#define FREEHGC_CORE_FREEHGC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/other_types.h"
#include "core/target_selection.h"
#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "graph/hetero_graph.h"
#include "metapath/metapath.h"

namespace freehgc::core {

/// How target-type nodes are chosen. kCriterion is FreeHGC's unified data
/// selection criterion (Alg. 1); the others exist for the Table VIII
/// ablations (Variant#3 = kHerding).
enum class TargetStrategy { kCriterion, kHerding, kRandom };

/// How father-type nodes are chosen. kNim is FreeHGC's neighbor influence
/// maximization; kHerding/kRandom are ablation fallbacks (Variants #5/#6).
enum class FatherStrategy { kNim, kHerding, kRandom };

/// How leaf-type nodes are condensed. kIlm synthesizes hyper-nodes
/// (information loss minimization); kHerding/kRandom select originals
/// (Variants #4/#6).
enum class LeafStrategy { kIlm, kHerding, kRandom };

/// Full configuration of the FreeHGC pipeline. Defaults reproduce the
/// paper's method; the strategy enums and the two booleans inside `target`
/// are the ablation switches. The MetaPathOptions base is the meta-path
/// configuration (hops K, path cap, compose row budget).
struct FreeHgcOptions : MetaPathOptions {
  /// Condensation ratio r: every node type keeps ~r * N_type nodes.
  double ratio = 0.024;
  TargetSelectionOptions target;
  NimOptions nim;
  TargetStrategy target_strategy = TargetStrategy::kCriterion;
  FatherStrategy father_strategy = FatherStrategy::kNim;
  LeafStrategy leaf_strategy = LeafStrategy::kIlm;
  uint64_t seed = 1;
};

/// Wall-clock breakdown of one Condense call across its five pipeline
/// stages. Total() tracks CondensedResult::seconds to within the cost of
/// option validation and context setup (the stages cover everything
/// else), which is what makes the Fig. 8 efficiency claim attributable:
/// benches report *where* the condensation time goes, not just how much.
struct StageSeconds {
  double metapath = 0.0;  // meta-path enumeration (Section IV-A)
  double target = 0.0;    // target-node selection (Algorithm 1)
  double father = 0.0;    // father-type NIM selection (Algorithm 2)
  double leaf = 0.0;      // leaf-type ILM synthesis (Algorithm 2)
  double assemble = 0.0;  // condensed-graph assembly (Eq. 15)

  double Total() const {
    return metapath + target + father + leaf + assemble;
  }
};

/// Output of a condensation run.
struct CondensedResult {
  /// The condensed heterogeneous graph (same schema as the input; all
  /// target nodes marked as training examples).
  HeteroGraph graph;
  /// Selected target-type node ids in the original graph.
  std::vector<int32_t> selected_target;
  /// Per-type kept original ids (empty for synthesized leaf types).
  std::vector<std::vector<int32_t>> kept_per_type;
  /// Wall-clock seconds spent condensing (the paper's efficiency metric).
  double seconds = 0.0;
  /// Per-stage breakdown of `seconds`.
  StageSeconds stage_seconds;
};

/// Runs the full FreeHGC pipeline (Algorithms 1 + 2) on `g`:
///   1. enumerate meta-paths (general meta-paths generation model),
///   2. select target nodes with the unified criterion,
///   3. select father-type nodes by neighbor influence maximization,
///   4. synthesize leaf-type hyper-nodes by information loss
///      minimization,
///   5. assemble the condensed graph.
/// Training-free: no model parameters are ever instantiated.
/// Every stage runs on `ctx` (null = the process-wide DefaultExec()
/// pool). The condensed result is bit-identical for every thread count
/// (see DESIGN.md, "Execution layer").
/// `cache`, when non-null, memoizes composed meta-path adjacencies: they
/// depend only on (graph, path, max_row_nnz) — not on ratio or seed — so
/// repeated runs skip the dominant SpGEMM cost. Cached and uncached runs
/// produce bit-identical results (the cache stores exact outputs of
/// deterministic computations; tests/pipeline_test.cc enforces this).
Result<CondensedResult> Condense(const HeteroGraph& g,
                                 const FreeHgcOptions& opts,
                                 exec::ExecContext* ctx = nullptr,
                                 AdjacencyCache* cache = nullptr);

/// Per-type rebuild rule used when assembling the condensed graph: either
/// a keep-list of original ids, or hyper-node member sets plus synthetic
/// features.
struct TypeMapping {
  bool synthesized = false;
  std::vector<int32_t> keep;                  // !synthesized
  std::vector<std::vector<int32_t>> members;  // synthesized
  Matrix synthetic_features;                  // synthesized
};

/// Rebuilds a HeteroGraph under per-type mappings: relations between kept
/// types become induced submatrices; relations touching synthesized types
/// are routed through the membership map, with parallel edges collapsing
/// into summed weights (this realizes Eq. 15's reverse-edge construction).
/// Exposed for tests.
Result<HeteroGraph> AssembleCondensedGraph(
    const HeteroGraph& g, const std::vector<TypeMapping>& mappings);

}  // namespace freehgc::core

#endif  // FREEHGC_CORE_FREEHGC_H_
