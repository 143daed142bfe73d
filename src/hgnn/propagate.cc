#include "hgnn/propagate.h"

#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparse/ops.h"

namespace freehgc::hgnn {

namespace {

/// Row-wise L2 normalization (zero rows stay zero). SeHGNN normalizes each
/// semantic embedding before fusion; doing the same here makes the block
/// representation scale-free, so a model trained on a condensed graph
/// (where some neighborhoods are thinner) transfers to the full graph.
void L2NormalizeRows(Matrix& m, exec::ExecContext& ex) {
  if (m.empty()) return;
  // Detach here, not inside the loop: for a mapped-graph feature matrix
  // the first mutating access copies the view into owned storage, and
  // concurrent Row() calls would race that copy-on-write.
  float* const base = m.data();
  const int64_t cols = m.cols();
  ex.ParallelFor(m.rows(), 256,
                 [&](int64_t begin, int64_t end, exec::Workspace&) {
                   for (int64_t r = begin; r < end; ++r) {
                     float* row = base + r * cols;
                     double sq = 0.0;
                     for (int64_t c = 0; c < cols; ++c) {
                       sq += double(row[c]) * row[c];
                     }
                     if (sq <= 0.0) continue;
                     const float inv =
                         static_cast<float>(1.0 / std::sqrt(sq));
                     for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
                   }
                 });
}

}  // namespace

Matrix RawFeatureBlock(const HeteroGraph& g, exec::ExecContext* ctx) {
  const TypeId target = g.target_type();
  FREEHGC_CHECK(target >= 0);
  exec::ExecContext& ex = exec::Resolve(ctx);
  Matrix block = g.Features(target);
  L2NormalizeRows(block, ex);
  return block;
}

Matrix PropagateOneBlock(const HeteroGraph& g, const MetaPath& p,
                         exec::ExecContext* ctx) {
  FREEHGC_CHECK(p.start_type() == g.target_type());
  FREEHGC_CHECK(g.HasFeatures(p.end_type()));
  FREEHGC_CHECK(!p.relations.empty());
  exec::ExecContext& ex = exec::Resolve(ctx);
  // Right to left, one sparse x dense product per hop: the exact
  // A_hat(r0) (A_hat(r1) (... X)), never the composed A_hat(P). A 1-hop
  // block thus equals SpMmDense(ComposeAdjacency(g, p, K), X) byte for
  // byte, for any K.
  auto hop = [&](size_t i, const Matrix& x) {
    return sparse::SpMmDense(
        sparse::RowNormalize(g.relation(p.relations[i]).adj, &ex), x, &ex);
  };
  size_t i = p.relations.size() - 1;
  Matrix block = hop(i, g.Features(p.end_type()));
  while (i-- > 0) block = hop(i, block);
  L2NormalizeRows(block, ex);
  return block;
}

void NoteBlocksPropagated(int64_t count) {
  static obs::Counter& blocks_ctr =
      obs::MetricsRegistry::Global().GetCounter("hgnn.blocks_propagated");
  blocks_ctr.Add(count);
}

PropagatedFeatures PropagateAlongPaths(const HeteroGraph& g,
                                       const std::vector<MetaPath>& paths,
                                       int64_t /*max_row_nnz*/,
                                       exec::ExecContext* ctx,
                                       AdjacencyCache* /*cache*/) {
  const TypeId target = g.target_type();
  FREEHGC_CHECK(target >= 0);
  FREEHGC_TRACE_SPAN("hgnn.propagate");
  exec::ExecContext& ex = exec::Resolve(ctx);
  PropagatedFeatures out;
  out.blocks.push_back(RawFeatureBlock(g, &ex));
  out.names.push_back("raw");
  out.end_types.push_back(target);
  for (const auto& p : paths) {
    FREEHGC_CHECK(p.start_type() == target);
    const TypeId end = p.end_type();
    if (!g.HasFeatures(end)) continue;
    out.blocks.push_back(PropagateOneBlock(g, p, &ex));
    out.names.push_back(p.Name(g));
    out.end_types.push_back(end);
  }
  NoteBlocksPropagated(static_cast<int64_t>(out.blocks.size()));
  return out;
}

}  // namespace freehgc::hgnn
