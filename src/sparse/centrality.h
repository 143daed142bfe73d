#ifndef FREEHGC_SPARSE_CENTRALITY_H_
#define FREEHGC_SPARSE_CENTRALITY_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "sparse/csr.h"

namespace freehgc::sparse {

/// Push-based approximate Personalized PageRank (Andersen-Chung-Lang
/// forward push). Equivalent to reference::PprScoresRef (and, on the
/// father half of a symmetric bipartite block, PprScores) up to the
/// residual threshold `epsilon`, but
/// touches only the neighbourhood where mass actually
/// flows — the O(E / epsilon) technique the paper invokes for scaling
/// neighbor influence maximization to large HINs (Section IV-C).
///
/// `a` must be square and row-normalized (or sym-normalized); `teleport`
/// is a sparse list of (node, mass) pairs whose masses sum to ~1.
std::vector<float> PprPush(const CsrMatrix& a,
                           const std::vector<std::pair<int32_t, float>>&
                               teleport,
                           float alpha, float epsilon = 1e-4f);

/// Node centrality measures usable as drop-in replacements for the PPR
/// scorer inside neighbor influence maximization — the paper: "NIM can be
/// replaced by other node importance evaluation algorithms like degree,
/// betweenness and closeness centrality, hubs and authorities".
enum class CentralityKind {
  kDegree,
  kCloseness,
  kBetweenness,
  kHubs,        // HITS hub scores
  kAuthorities  // HITS authority scores
};

const char* CentralityKindName(CentralityKind kind);

/// Options for the approximate centrality computations.
struct CentralityOptions {
  /// Source-sample count for the approximate closeness / betweenness
  /// estimators (exact all-pairs is O(V*E); sampling keeps this linear in
  /// practice for the graph sizes here).
  int num_samples = 64;
  /// Power-iteration rounds for HITS.
  int hits_iters = 30;
  uint64_t seed = 1;
};

/// Computes the requested centrality for every node of a square graph.
/// - kDegree: out-degree (entry count per row).
/// - kCloseness: sampled harmonic closeness 1/d averaged over BFS from
///   `num_samples` random sources.
/// - kBetweenness: Brandes' algorithm restricted to sampled sources
///   (unweighted shortest paths).
/// - kHubs / kAuthorities: HITS power iteration with L2 normalization.
///
/// Sampled estimators parallelize one BFS source per chunk with an
/// ordered reduction; HITS half-steps are row-parallel gathers. Results
/// are bit-identical for every thread count (nullptr ctx = default).
std::vector<double> Centrality(const CsrMatrix& a, CentralityKind kind,
                               const CentralityOptions& opts = {},
                               exec::ExecContext* ctx = nullptr);

}  // namespace freehgc::sparse

#endif  // FREEHGC_SPARSE_CENTRALITY_H_
