#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "hgnn/models.h"
#include "hgnn/propagate.h"
#include "hgnn/trainer.h"
#include "metapath/metapath.h"
#include "obs/metrics.h"
#include "sparse/ops.h"

namespace freehgc::hgnn {
namespace {

TEST(PropagateTest, BlockLayoutAndShapes) {
  const HeteroGraph g = datasets::MakeToy(1);
  PropagateOptions opts;
  opts.max_hops = 2;
  const PropagatedFeatures f = PropagateFeatures(g, opts);
  ASSERT_GE(f.blocks.size(), 2u);
  EXPECT_EQ(f.names[0], "raw");
  EXPECT_EQ(f.end_types[0], g.target_type());
  for (const auto& b : f.blocks) {
    EXPECT_EQ(b.rows(), g.NodeCount(g.target_type()));
  }
  EXPECT_EQ(f.blocks.size(), f.names.size());
  EXPECT_EQ(f.blocks.size(), f.end_types.size());
}

TEST(PropagateTest, MeanAggregationIsConvexCombination) {
  // Propagated feature values must lie within the range of the source
  // features (row-stochastic composition = convex combination).
  const HeteroGraph g = datasets::MakeToy(2);
  PropagateOptions opts;
  opts.max_hops = 1;
  const PropagatedFeatures f = PropagateFeatures(g, opts);
  for (size_t p = 1; p < f.blocks.size(); ++p) {
    const Matrix& src = g.Features(f.end_types[p]);
    float lo = src.data()[0], hi = src.data()[0];
    for (int64_t i = 0; i < src.size(); ++i) {
      lo = std::min(lo, src.data()[i]);
      hi = std::max(hi, src.data()[i]);
    }
    for (int64_t i = 0; i < f.blocks[p].size(); ++i) {
      EXPECT_GE(f.blocks[p].data()[i], lo - 1e-4f);
      EXPECT_LE(f.blocks[p].data()[i], hi + 1e-4f);
    }
  }
}

TEST(PropagateTest, CondensedGraphSharesBlockLayout) {
  const HeteroGraph g = datasets::MakeToy(3);
  PropagateOptions opts;
  opts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, opts);
  // Induce a subgraph (same schema) and propagate along the same paths.
  std::vector<std::vector<int32_t>> keep(
      static_cast<size_t>(g.NumNodeTypes()));
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    for (int32_t v = 0; v < g.NodeCount(t) / 2; ++v) {
      keep[static_cast<size_t>(t)].push_back(v);
    }
  }
  auto sub = g.InducedSubgraph(keep);
  ASSERT_TRUE(sub.ok());
  const PropagatedFeatures f =
      PropagateAlongPaths(*sub, ctx.paths, opts.max_row_nnz);
  ASSERT_EQ(f.blocks.size(), ctx.full_features.blocks.size());
  for (size_t p = 0; p < f.blocks.size(); ++p) {
    EXPECT_EQ(f.blocks[p].cols(), ctx.full_features.blocks[p].cols());
    EXPECT_EQ(f.blocks[p].rows(),
              sub->NodeCount(sub->target_type()));
  }
}

TEST(PropagateTest, MultiHopBlocksAreTheExactProduct) {
  // Every >= 2-hop block is A_hat(r0) (A_hat(r1) (... X_end)) with no
  // row budget, L2-row-normalized: checked against a float64 dense
  // evaluation of the same product.
  const HeteroGraph g = datasets::MakeToy(4);
  PropagateOptions opts;
  opts.max_hops = 3;
  opts.max_row_nnz = 1;  // ignored by propagation
  const EvalContext ctx = BuildEvalContext(g, opts);
  using Dense = std::vector<std::vector<double>>;
  int checked = 0;
  size_t block = 1;
  for (const MetaPath& p : ctx.paths) {
    if (!g.HasFeatures(p.end_type())) continue;
    const Matrix& got = ctx.full_features.blocks[block++];
    if (p.hops() < 2) continue;
    const Matrix& x = g.Features(p.end_type());
    Dense y(static_cast<size_t>(x.rows()),
            std::vector<double>(static_cast<size_t>(x.cols())));
    for (int64_t r = 0; r < x.rows(); ++r) {
      for (int64_t c = 0; c < x.cols(); ++c) {
        y[static_cast<size_t>(r)][static_cast<size_t>(c)] = x.Row(r)[c];
      }
    }
    for (size_t i = p.relations.size(); i-- > 0;) {
      const CsrMatrix& adj = g.relation(p.relations[i]).adj;
      Dense next(static_cast<size_t>(adj.rows()),
                 std::vector<double>(static_cast<size_t>(x.cols()), 0.0));
      for (int32_t r = 0; r < adj.rows(); ++r) {
        double sum = 0.0;
        for (float v : adj.RowValues(r)) sum += v;
        if (sum == 0.0) continue;
        auto idx = adj.RowIndices(r);
        auto val = adj.RowValues(r);
        for (size_t k = 0; k < idx.size(); ++k) {
          for (size_t c = 0; c < next[0].size(); ++c) {
            next[static_cast<size_t>(r)][c] +=
                val[k] / sum * y[static_cast<size_t>(idx[k])][c];
          }
        }
      }
      y = std::move(next);
    }
    ASSERT_EQ(got.rows(), static_cast<int64_t>(y.size()));
    for (int64_t r = 0; r < got.rows(); ++r) {
      const std::vector<double>& row = y[static_cast<size_t>(r)];
      double sq = 0.0;
      for (double v : row) sq += v * v;
      const double inv = sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0;
      for (int64_t c = 0; c < got.cols(); ++c) {
        EXPECT_NEAR(got.Row(r)[c], row[static_cast<size_t>(c)] * inv, 1e-5)
            << p.Name(g) << " row " << r << " col " << c;
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 2);
}

TEST(PropagateTest, OneHopBlocksMatchTheComposedAdjacencyProduct) {
  // A 1-hop block is byte-equal to SpMmDense(ComposeAdjacency(g, p,
  // 512), X_end), L2-row-normalized as propagation does it.
  const HeteroGraph g = datasets::MakeToy(5);
  PropagateOptions opts;
  opts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, opts);
  int checked = 0;
  size_t block = 1;
  for (const MetaPath& p : ctx.paths) {
    if (!g.HasFeatures(p.end_type())) continue;
    const Matrix& got = ctx.full_features.blocks[block++];
    if (p.hops() != 1) continue;
    Matrix want = sparse::SpMmDense(ComposeAdjacency(g, p, 512),
                                    g.Features(p.end_type()));
    for (int64_t r = 0; r < want.rows(); ++r) {
      float* row = want.Row(r);
      double sq = 0.0;
      for (int64_t c = 0; c < want.cols(); ++c) sq += double(row[c]) * row[c];
      if (sq <= 0.0) continue;
      const float inv = static_cast<float>(1.0 / std::sqrt(sq));
      for (int64_t c = 0; c < want.cols(); ++c) row[c] *= inv;
    }
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.size()) * sizeof(float)),
              0)
        << p.Name(g);
    ++checked;
  }
  EXPECT_GE(checked, 1);
}

TEST(PropagateTest, BuildEvalContextComposesNothing) {
  const HeteroGraph g = datasets::MakeToy(6);
  PropagateOptions opts;
  opts.max_hops = 3;
  obs::Counter& compose_calls =
      obs::MetricsRegistry::Global().GetCounter("metapath.compose_calls");
  const int64_t before = compose_calls.Value();
  const EvalContext ctx = BuildEvalContext(g, opts);
  EXPECT_GT(ctx.full_features.blocks.size(), 2u);
  EXPECT_EQ(compose_calls.Value(), before);
}

class ModelKindTest : public ::testing::TestWithParam<HgnnKind> {};

TEST_P(ModelKindTest, ForwardShapeAndDeterminism) {
  const HeteroGraph g = datasets::MakeToy(4);
  PropagateOptions popts;
  popts.max_hops = 2;
  const PropagatedFeatures f = PropagateFeatures(g, popts);
  std::vector<int64_t> dims;
  for (const auto& b : f.blocks) dims.push_back(b.cols());

  HgnnConfig cfg;
  cfg.kind = GetParam();
  cfg.hidden = 8;
  cfg.seed = 11;
  HgnnModel m1(cfg, dims, f.end_types, g.num_classes());
  HgnnModel m2(cfg, dims, f.end_types, g.num_classes());
  Matrix out1 = m1.Forward(f.blocks, /*train=*/false);
  Matrix out2 = m2.Forward(f.blocks, /*train=*/false);
  EXPECT_EQ(out1.rows(), g.NodeCount(g.target_type()));
  EXPECT_EQ(out1.cols(), g.num_classes());
  EXPECT_EQ(out1, out2);  // same seed, same params, same output
  EXPECT_GT(m1.NumParams(), 0);
}

TEST_P(ModelKindTest, GradCheck) {
  const HeteroGraph g = datasets::MakeToy(5);
  PropagateOptions popts;
  popts.max_hops = 2;
  popts.max_paths = 3;
  const PropagatedFeatures f = PropagateFeatures(g, popts);
  std::vector<int64_t> dims;
  for (const auto& b : f.blocks) dims.push_back(b.cols());

  HgnnConfig cfg;
  cfg.kind = GetParam();
  cfg.hidden = 4;
  cfg.dropout = 0.0f;
  cfg.seed = 13;
  HgnnModel model(cfg, dims, f.end_types, g.num_classes());

  auto loss_fn = [&]() {
    Matrix out = model.Forward(f.blocks, /*train=*/true);
    return nn::SoftmaxCrossEntropy(out, g.labels(), {}, nullptr);
  };

  model.ZeroGrad();
  Matrix out = model.Forward(f.blocks, true);
  Matrix dlogits;
  nn::SoftmaxCrossEntropy(out, g.labels(), {}, &dlogits);
  model.Backward(dlogits);

  int checked = 0;
  for (nn::Parameter* p : model.Params()) {
    for (int64_t r = 0; r < p->value.rows() && checked < 40; ++r) {
      for (int64_t c = 0; c < p->value.cols() && checked < 40; ++c) {
        const float orig = p->value.At(r, c);
        const float eps = 2e-3f;
        p->value.At(r, c) = orig + eps;
        const float hi = loss_fn();
        p->value.At(r, c) = orig - eps;
        const float lo = loss_fn();
        p->value.At(r, c) = orig;
        const float num = (hi - lo) / (2 * eps);
        // Relative tolerance: float32 central differences cross ReLU kinks,
        // and sum-fusion (HGB) amplifies the absolute error.
        const float tol = std::max(5e-3f, 0.06f * std::fabs(num));
        EXPECT_NEAR(p->grad.At(r, c), num, tol)
            << HgnnKindName(cfg.kind) << " param (" << r << "," << c << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10);
}

/// Byte equality of two matrices (signed zeros and NaN payloads count).
bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(float)) == 0);
}

std::vector<Matrix> GatherBlocks(const std::vector<Matrix>& blocks,
                                 const std::vector<int32_t>& rows) {
  std::vector<Matrix> out;
  for (const Matrix& b : blocks) out.push_back(b.GatherRows(rows));
  return out;
}

/// A model of the parameterized kind, with two Adam steps taken so its
/// parameters (attention logits, biases) are no longer at their
/// initial values.
HgnnModel TrainedModel(HgnnKind kind, const HeteroGraph& g,
                       const PropagatedFeatures& f) {
  std::vector<int64_t> dims;
  for (const auto& b : f.blocks) dims.push_back(b.cols());
  HgnnConfig cfg;
  cfg.kind = kind;
  cfg.hidden = 8;
  cfg.seed = 17;
  HgnnModel model(cfg, dims, f.end_types, g.num_classes());
  nn::Adam opt(0.05f);
  for (int step = 0; step < 2; ++step) {
    model.ZeroGrad();
    Matrix dlogits;
    nn::SoftmaxCrossEntropy(model.Forward(f.blocks, /*train=*/true),
                            g.labels(), g.train_index(), &dlogits);
    model.Backward(dlogits);
    opt.Step(model.Params());
  }
  return model;
}

TEST_P(ModelKindTest, EvalForwardOnGatheredRowsMatchesFullForward) {
  // The trainer's eval forwards run over the val/test rows only; that is
  // exact because inference is row-wise.
  const HeteroGraph g = datasets::MakeToy(14);
  PropagateOptions popts;
  popts.max_hops = 2;
  const PropagatedFeatures f = PropagateFeatures(g, popts);
  HgnnModel model = TrainedModel(GetParam(), g, f);
  const Matrix full = model.Forward(f.blocks, /*train=*/false);
  std::vector<int32_t> rows;
  for (int32_t r = static_cast<int32_t>(full.rows()) - 1; r >= 0; r -= 3) {
    rows.push_back(r);
  }
  rows.push_back(rows.front());  // a row gathered twice
  const Matrix gathered =
      model.Forward(GatherBlocks(f.blocks, rows), /*train=*/false);
  EXPECT_TRUE(SameBytes(gathered, full.GatherRows(rows)))
      << HgnnKindName(GetParam());
}

TEST_P(ModelKindTest, EvalForwardBetweenTrainForwardAndBackwardIsInert) {
  // Two identical models take the same train step; one runs an eval
  // forward on other rows between its Forward and Backward. Dropout is
  // on, so the eval forward must also leave the dropout masks alone.
  const HeteroGraph g = datasets::MakeToy(15);
  PropagateOptions popts;
  popts.max_hops = 2;
  const PropagatedFeatures f = PropagateFeatures(g, popts);
  HgnnModel plain = TrainedModel(GetParam(), g, f);
  HgnnModel probed = TrainedModel(GetParam(), g, f);
  const std::vector<int32_t> rows = {2, 5, 7};
  for (HgnnModel* model : {&plain, &probed}) {
    model->ZeroGrad();
    const Matrix logits = model->Forward(f.blocks, /*train=*/true);
    Matrix dlogits;
    nn::SoftmaxCrossEntropy(logits, g.labels(), g.train_index(), &dlogits);
    if (model == &probed) {
      model->Forward(GatherBlocks(f.blocks, rows), /*train=*/false);
    }
    model->Backward(dlogits);
  }
  const auto want = plain.Params();
  const auto got = probed.Params();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBytes(got[i]->grad, want[i]->grad))
        << HgnnKindName(GetParam()) << " param " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelKindTest,
                         ::testing::Values(HgnnKind::kHeteroSGC,
                                           HgnnKind::kSeHGNN, HgnnKind::kHAN,
                                           HgnnKind::kHGB, HgnnKind::kHGT),
                         [](const auto& info) {
                           return HgnnKindName(info.param);
                         });

TEST(TrainerTest, WholeGraphBeatsChance) {
  const HeteroGraph g = datasets::MakeToy(6);
  PropagateOptions popts;
  popts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, popts);
  HgnnConfig cfg;
  cfg.hidden = 16;
  cfg.epochs = 80;
  const EvalMetrics m = WholeGraphBaseline(ctx, cfg);
  EXPECT_GT(m.test_accuracy, 1.2f / static_cast<float>(g.num_classes()));
  EXPECT_GT(m.train_seconds, 0.0);
  EXPECT_GT(m.epochs_run, 0);
}

TEST(TrainerTest, TrainOnSubgraphEvaluatesOnFull) {
  const HeteroGraph g = datasets::MakeToy(7);
  PropagateOptions popts;
  popts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, popts);
  std::vector<std::vector<int32_t>> keep(
      static_cast<size_t>(g.NumNodeTypes()));
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    for (int32_t v = 0; v < g.NodeCount(t); v += 2) {
      keep[static_cast<size_t>(t)].push_back(v);
    }
  }
  auto sub = g.InducedSubgraph(keep);
  ASSERT_TRUE(sub.ok());
  HgnnConfig cfg;
  cfg.hidden = 16;
  cfg.epochs = 60;
  const EvalMetrics m = TrainAndEvaluate(ctx, *sub, cfg);
  EXPECT_GE(m.test_accuracy, 0.0f);
  EXPECT_LE(m.test_accuracy, 1.0f);
}

TEST(TrainerTest, TrainOnBlocksRunsOnSyntheticRows) {
  const HeteroGraph g = datasets::MakeToy(8);
  PropagateOptions popts;
  popts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, popts);
  // Synthetic data: 12 rows copied from real propagated rows.
  std::vector<Matrix> blocks;
  std::vector<int32_t> rows = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  for (const auto& b : ctx.full_features.blocks) {
    blocks.push_back(b.GatherRows(rows));
  }
  std::vector<int32_t> labels;
  for (int32_t r : rows) {
    labels.push_back(g.labels()[static_cast<size_t>(r)]);
  }
  HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 40;
  const EvalMetrics m = TrainOnBlocks(ctx, blocks, labels, cfg);
  EXPECT_GE(m.test_accuracy, 0.0f);
  EXPECT_LE(m.test_accuracy, 1.0f);
}

TEST(TrainerTest, ThreadCountDoesNotChangeResults) {
  const HeteroGraph g = datasets::MakeAcm(33, /*scale=*/0.2);
  PropagateOptions popts;
  popts.max_hops = 2;
  popts.max_paths = 4;
  const EvalContext ctx = BuildEvalContext(g, popts);
  std::vector<std::vector<int32_t>> keep(
      static_cast<size_t>(g.NumNodeTypes()));
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    for (int32_t v = 0; v < g.NodeCount(t); v += 4) {
      keep[static_cast<size_t>(t)].push_back(v);
    }
  }
  auto sub = g.InducedSubgraph(keep);
  ASSERT_TRUE(sub.ok());
  HgnnConfig cfg;
  cfg.kind = HgnnKind::kSeHGNN;
  cfg.hidden = 64;
  cfg.epochs = 20;
  cfg.seed = 5;
  // The test-row eval forward's head product (rows x blocks*hidden x
  // hidden) splits into several row chunks.
  const int64_t head_in =
      cfg.hidden * static_cast<int64_t>(ctx.full_features.blocks.size());
  ASSERT_GE(exec::ExecContext::NumChunks(
                static_cast<int64_t>(g.test_index().size()),
                dense::ProductRowGrain(head_in, cfg.hidden)),
            3);
  const EvalMetrics base = TrainAndEvaluate(ctx, *sub, cfg, nullptr);
  for (int threads : {1, 4}) {
    exec::ExecContext ex(threads);
    const EvalMetrics m = TrainAndEvaluate(ctx, *sub, cfg, &ex);
    EXPECT_EQ(m.test_accuracy, base.test_accuracy) << threads;
    EXPECT_EQ(m.macro_f1, base.macro_f1) << threads;
    EXPECT_EQ(m.epochs_run, base.epochs_run) << threads;
  }
}

TEST(TrainerTest, EmptyTestSplitScoresEveryRow) {
  // nn::Accuracy and nn::MacroF1 score an empty index as every row, so a
  // graph without a test split is scored on all of its target rows (and
  // validated on them too when it has no validation split either).
  const auto with_split = [](std::vector<int32_t> val, bool all_test) {
    HeteroGraph g = datasets::MakeToy(10);
    std::vector<int32_t> all(static_cast<size_t>(g.NodeCount(g.target_type())));
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int32_t>(i);
    std::vector<int32_t> train = g.train_index();
    EXPECT_TRUE(g.SetSplit(std::move(train), std::move(val),
                           all_test ? all : std::vector<int32_t>{})
                    .ok());
    return g;
  };
  PropagateOptions popts;
  popts.max_hops = 2;
  HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 30;
  const std::vector<int32_t> val = datasets::MakeToy(10).val_index();
  ASSERT_FALSE(val.empty());
  for (const std::vector<int32_t>& v : {std::vector<int32_t>{}, val}) {
    const HeteroGraph empty_test = with_split(v, /*all_test=*/false);
    const HeteroGraph all_test = with_split(v, /*all_test=*/true);
    const EvalMetrics a =
        WholeGraphBaseline(BuildEvalContext(empty_test, popts), cfg);
    const EvalMetrics b =
        WholeGraphBaseline(BuildEvalContext(all_test, popts), cfg);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy) << v.size();
    EXPECT_EQ(a.macro_f1, b.macro_f1) << v.size();
    EXPECT_EQ(a.epochs_run, b.epochs_run) << v.size();
    EXPECT_GT(a.test_accuracy, 0.0f) << v.size();
  }
}

TEST(TrainerTest, DeterministicUnderSeed) {
  const HeteroGraph g = datasets::MakeToy(9);
  PropagateOptions popts;
  popts.max_hops = 2;
  const EvalContext ctx = BuildEvalContext(g, popts);
  HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 30;
  cfg.seed = 77;
  const EvalMetrics a = WholeGraphBaseline(ctx, cfg);
  const EvalMetrics b = WholeGraphBaseline(ctx, cfg);
  EXPECT_FLOAT_EQ(a.test_accuracy, b.test_accuracy);
}

}  // namespace
}  // namespace freehgc::hgnn
