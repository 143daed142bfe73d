#include <gtest/gtest.h>

#include <set>

#include "baselines/coarsening.h"
#include "baselines/coreset.h"
#include "baselines/gradient_matching.h"
#include "datasets/generator.h"

namespace freehgc::baselines {
namespace {

hgnn::EvalContext MakeContext(const HeteroGraph& g) {
  hgnn::PropagateOptions popts;
  popts.max_hops = 2;
  popts.max_paths = 8;
  return hgnn::BuildEvalContext(g, popts);
}

class CoresetKindTest : public ::testing::TestWithParam<CoresetKind> {};

TEST_P(CoresetKindTest, RespectsBudgetsAndValidates) {
  const HeteroGraph g = datasets::MakeToy(1);
  const hgnn::EvalContext ctx = MakeContext(g);
  auto res = CoresetCondense(ctx, GetParam(), /*ratio=*/0.2, /*seed=*/3);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->graph.Validate().ok());
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    EXPECT_LE(res->graph.NodeCount(t),
              static_cast<int32_t>(0.2 * g.NodeCount(t)) +
                  g.num_classes() + 1);
    EXPECT_GT(res->graph.NodeCount(t), 0);
  }
  EXPECT_GE(res->seconds, 0.0);
}

TEST_P(CoresetKindTest, Deterministic) {
  const HeteroGraph g = datasets::MakeToy(2);
  const hgnn::EvalContext ctx = MakeContext(g);
  auto a = CoresetCondense(ctx, GetParam(), 0.2, 7);
  auto b = CoresetCondense(ctx, GetParam(), 0.2, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->graph.TotalNodes(), b->graph.TotalNodes());
  EXPECT_EQ(a->graph.TotalEdges(), b->graph.TotalEdges());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CoresetKindTest,
                         ::testing::Values(CoresetKind::kRandom,
                                           CoresetKind::kHerding,
                                           CoresetKind::kKCenter),
                         [](const auto& info) {
                           switch (info.param) {
                             case CoresetKind::kRandom: return "Random";
                             case CoresetKind::kHerding: return "Herding";
                             case CoresetKind::kKCenter: return "KCenter";
                           }
                           return "?";
                         });

TEST(CoresetTest, KindNames) {
  EXPECT_STREQ(CoresetKindName(CoresetKind::kHerding), "Herding-HG");
  EXPECT_STREQ(CoresetKindName(CoresetKind::kRandom), "Random-HG");
}

TEST(CoarseningTest, ProducesValidCondensedGraph) {
  const HeteroGraph g = datasets::MakeToy(11);
  auto res = CoarseningCondense(g, 0.2, /*smoothing_rounds=*/3, 5);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->graph.Validate().ok());
  // All classes represented among kept target labels.
  std::set<int32_t> classes(res->graph.labels().begin(),
                            res->graph.labels().end());
  EXPECT_EQ(static_cast<int32_t>(classes.size()), g.num_classes());
  // Other types are coarsened near the budget.
  const TypeId l = g.TypeByName("l").value();
  EXPECT_LE(res->graph.NodeCount(l),
            static_cast<int32_t>(0.2 * g.NodeCount(l)) + 1);
}

TEST(CoarseningTest, SupernodeFeaturesAreMixtures) {
  const HeteroGraph g = datasets::MakeToy(13);
  auto res = CoarseningCondense(g, 0.3, 2, 5);
  ASSERT_TRUE(res.ok());
  const TypeId f = g.TypeByName("f").value();
  const Matrix& orig = g.Features(f);
  float lo = orig.data()[0], hi = orig.data()[0];
  for (int64_t i = 0; i < orig.size(); ++i) {
    lo = std::min(lo, orig.data()[i]);
    hi = std::max(hi, orig.data()[i]);
  }
  const Matrix& coarse = res->graph.Features(f);
  for (int64_t i = 0; i < coarse.size(); ++i) {
    EXPECT_GE(coarse.data()[i], lo - 1e-4f);
    EXPECT_LE(coarse.data()[i], hi + 1e-4f);
  }
}

TEST(GradientMatchingTest, OutputShapesMatchContext) {
  const HeteroGraph g = datasets::MakeToy(21);
  const hgnn::EvalContext ctx = MakeContext(g);
  GradientMatchingOptions opts;
  opts.ratio = 0.2;
  opts.outer_iters = 3;
  opts.inner_iters = 2;
  opts.relay_inits = 2;
  auto res = GradientMatchingCondense(ctx, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->blocks.size(), ctx.full_features.blocks.size());
  for (size_t b = 0; b < res->blocks.size(); ++b) {
    EXPECT_EQ(res->blocks[b].cols(), ctx.full_features.blocks[b].cols());
    EXPECT_EQ(res->blocks[b].rows(),
              static_cast<int64_t>(res->labels.size()));
  }
  EXPECT_GT(res->MemoryBytes(), 0u);
  // Class-proportional synthetic labels cover every class.
  std::set<int32_t> classes(res->labels.begin(), res->labels.end());
  EXPECT_EQ(static_cast<int32_t>(classes.size()), g.num_classes());
}

TEST(GradientMatchingTest, HeteroVariantUsesClusterInitAndCostsMore) {
  const HeteroGraph g = datasets::MakeAcm(23, /*scale=*/0.3);
  const hgnn::EvalContext ctx = MakeContext(g);
  GradientMatchingOptions gcond;
  gcond.ratio = 0.05;
  gcond.outer_iters = 6;
  auto a = GradientMatchingCondense(ctx, gcond);
  GradientMatchingOptions hgcond = gcond;
  hgcond.hetero = true;
  hgcond.relay_inits = gcond.relay_inits + 2;
  hgcond.inner_iters = gcond.inner_iters + 2;
  auto b = GradientMatchingCondense(ctx, hgcond);
  ASSERT_TRUE(a.ok() && b.ok());
  // HGCond's clustering + OPS + heavier loops must cost more work. The
  // count is exact, so unlike wall clock it cannot flip under load or
  // when the products get faster.
  EXPECT_GT(a->multiply_adds, 0);
  EXPECT_GT(b->multiply_adds, a->multiply_adds);
}

TEST(GradientMatchingTest, MemoryGateTriggersResourceExhausted) {
  const HeteroGraph g = datasets::MakeToy(25);
  const hgnn::EvalContext ctx = MakeContext(g);
  GradientMatchingOptions opts;
  opts.ratio = 0.2;
  opts.memory_budget_bytes = 1;  // everything exceeds 1 byte
  opts.memory_scale = 1000.0;
  auto res = GradientMatchingCondense(ctx, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(GradientMatchingTest, MemoryGateAllowsSmallRuns) {
  const HeteroGraph g = datasets::MakeToy(27);
  const hgnn::EvalContext ctx = MakeContext(g);
  GradientMatchingOptions opts;
  opts.ratio = 0.1;
  opts.outer_iters = 2;
  opts.memory_budget_bytes = 24ULL << 30;  // 24GB
  opts.memory_scale = 1.0;
  EXPECT_TRUE(GradientMatchingCondense(ctx, opts).ok());
}

TEST(GradientMatchingTest, SyntheticFeaturesCarryClassSignal) {
  // After matching, a fresh linear probe trained on the synthetic data
  // should beat chance on the real test split — i.e. the synthetic
  // features are not noise.
  const HeteroGraph g = datasets::MakeAcm(29, /*scale=*/0.08);
  const hgnn::EvalContext ctx = MakeContext(g);
  GradientMatchingOptions opts;
  opts.ratio = 0.1;
  auto res = GradientMatchingCondense(ctx, opts);
  ASSERT_TRUE(res.ok());
  hgnn::HgnnConfig cfg;
  cfg.kind = hgnn::HgnnKind::kHeteroSGC;
  cfg.hidden = 16;
  cfg.epochs = 60;
  const hgnn::EvalMetrics m =
      hgnn::TrainOnBlocks(ctx, res->blocks, res->labels, cfg);
  EXPECT_GT(m.test_accuracy, 1.3f / static_cast<float>(g.num_classes()));
}

}  // namespace
}  // namespace freehgc::baselines
