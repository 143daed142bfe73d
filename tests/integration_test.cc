// Cross-module integration tests: the full condense -> train -> evaluate
// pipeline, and the qualitative orderings the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "baselines/coreset.h"
#include "core/freehgc.h"
#include "datasets/generator.h"
#include "graph/serialize.h"
#include "hgnn/trainer.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"

namespace freehgc {
namespace {

struct Fixture {
  HeteroGraph graph;
  hgnn::EvalContext ctx;
};

Fixture MakeAcmFixture(uint64_t seed) {
  Fixture f;
  f.graph = datasets::MakeAcm(seed, /*scale=*/0.15);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 10;
  f.ctx = hgnn::BuildEvalContext(f.graph, mp);
  return f;
}

hgnn::HgnnConfig FastConfig() {
  hgnn::HgnnConfig cfg;
  cfg.hidden = 24;
  cfg.epochs = 60;
  cfg.patience = 0;
  return cfg;
}

TEST(IntegrationTest, FreeHgcBeatsRandomSelection) {
  const Fixture f = MakeAcmFixture(101);
  pipeline::ArtifactCache cache;
  const pipeline::PipelineEnv env(nullptr, &cache);
  pipeline::RunSpec run;
  run.ratio = 0.05;
  run.seed = 1;
  const auto free_res =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  const auto rand_res =
      pipeline::RunMethod(f.ctx, "random", run, FastConfig(), env);
  ASSERT_TRUE(free_res.ok() && rand_res.ok());
  // The paper's central claim at the smallest scale we test: structure-
  // aware selection beats structure-blind random selection.
  EXPECT_GT(free_res->accuracy, rand_res->accuracy - 1.0f);
}

TEST(IntegrationTest, AccuracyGrowsWithRatio) {
  // Fig. 7's monotonicity claim (allowing small noise): FreeHGC accuracy
  // at a large ratio exceeds accuracy at a tiny ratio.
  const Fixture f = MakeAcmFixture(103);
  pipeline::ArtifactCache cache;
  const pipeline::PipelineEnv env(nullptr, &cache);
  pipeline::RunSpec run;
  run.seed = 2;
  run.ratio = 0.012;
  const auto lo =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  run.ratio = 0.12;
  const auto hi =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_GE(hi->accuracy, lo->accuracy - 1.0f);
}

TEST(IntegrationTest, FreeHgcCondensesFasterThanGradientMatching) {
  const Fixture f = MakeAcmFixture(105);
  pipeline::ArtifactCache cache;  // fresh: FreeHGC pays its compositions
  const pipeline::PipelineEnv env(nullptr, &cache);
  pipeline::RunSpec run;
  run.ratio = 0.024;
  run.seed = 3;
  const auto free_res =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  const auto hg_res =
      pipeline::RunMethod(f.ctx, "hgcond", run, FastConfig(), env);
  ASSERT_TRUE(free_res.ok() && hg_res.ok());
  // Training-free condensation must be cheaper than bi-level gradient
  // matching with clustering + OPS (Figs. 2b / 8).
  EXPECT_LT(free_res->condense_seconds, hg_res->condense_seconds);
}

TEST(IntegrationTest, CondensedStorageMuchSmallerThanWhole) {
  const Fixture f = MakeAcmFixture(107);
  core::FreeHgcOptions opts;
  opts.ratio = 0.024;
  opts.max_paths = 10;
  pipeline::ArtifactCache cache;
  auto res = core::Condense(f.graph, opts, nullptr, &cache);
  ASSERT_TRUE(res.ok());
  // Table VII: ~95%+ storage reduction at r=2.4%.
  EXPECT_LT(res->graph.MemoryBytes(), f.graph.MemoryBytes() / 10);
}

TEST(IntegrationTest, GeneralizationAcrossAllFiveHgnns) {
  // Table IV's protocol: one condensed graph, five evaluator models; every
  // model must beat chance by a clear margin.
  const Fixture f = MakeAcmFixture(109);
  core::FreeHgcOptions opts;
  opts.ratio = 0.1;
  opts.max_paths = 10;
  pipeline::ArtifactCache cache;
  auto res = core::Condense(f.graph, opts, nullptr, &cache);
  ASSERT_TRUE(res.ok());
  const float chance = 1.0f / static_cast<float>(f.graph.num_classes());
  for (auto kind :
       {hgnn::HgnnKind::kHeteroSGC, hgnn::HgnnKind::kSeHGNN,
        hgnn::HgnnKind::kHAN, hgnn::HgnnKind::kHGB, hgnn::HgnnKind::kHGT}) {
    hgnn::HgnnConfig cfg = FastConfig();
    cfg.kind = kind;
    const hgnn::EvalMetrics m =
        hgnn::TrainAndEvaluate(f.ctx, res->graph, cfg);
    EXPECT_GT(m.test_accuracy, 1.5f * chance) << hgnn::HgnnKindName(kind);
  }
}

TEST(IntegrationTest, WholePipelineDeterministic) {
  // A run on a fresh cache and a repeat on the now warm one agree.
  const Fixture f = MakeAcmFixture(111);
  pipeline::ArtifactCache cache;
  const pipeline::PipelineEnv env(nullptr, &cache);
  pipeline::RunSpec run;
  run.ratio = 0.05;
  run.seed = 9;
  const auto a =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  const auto b =
      pipeline::RunMethod(f.ctx, "freehgc", run, FastConfig(), env);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FLOAT_EQ(a->accuracy, b->accuracy);
  EXPECT_EQ(a->storage_bytes, b->storage_bytes);
}

TEST(IntegrationTest, MappedGraphCondensesBitIdenticallyToHeapGraph) {
  // The zero-copy acceptance property end to end: run the full FreeHGC
  // pipeline once against the heap-resident graph and once against the
  // same graph mapped from a v3 container. Every kernel reads through
  // ArrayRef spans, so the condensed outputs must be bit-identical, not
  // just statistically close. Each graph condenses on its own fresh cache
  // (a shared one would serve the mapped run the heap run's entries), and
  // the mapped graph once more on its warm cache.
  const HeteroGraph heap = datasets::MakeAcm(117, /*scale=*/0.15);
  const std::string path = "/tmp/freehgc_test_integration_v3.fhgc";
  ASSERT_TRUE(SaveHeteroGraphV3(heap, path).ok());
  auto mapped = MapHeteroGraph(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_EQ(mapped->ContentFingerprint(), heap.ContentFingerprint());
  core::FreeHgcOptions opts;
  opts.ratio = 0.05;
  opts.max_paths = 10;
  pipeline::ArtifactCache heap_cache, mapped_cache;
  auto a = core::Condense(heap, opts, nullptr, &heap_cache);
  auto b = core::Condense(*mapped, opts, nullptr, &mapped_cache);
  auto warm = core::Condense(*mapped, opts, nullptr, &mapped_cache);
  ASSERT_TRUE(a.ok() && b.ok() && warm.ok());
  EXPECT_EQ(a->graph.ContentFingerprint(), b->graph.ContentFingerprint());
  EXPECT_EQ(a->graph.ContentFingerprint(), warm->graph.ContentFingerprint());
  EXPECT_EQ(a->graph.MemoryBytes(), b->graph.MemoryBytes());
  std::remove(path.c_str());
}

TEST(IntegrationTest, DeepHierarchyDatasetEndToEnd) {
  // DBLP-style graph exercises the father/leaf split (Fig. 5 middle).
  HeteroGraph g = datasets::MakeDblp(113, /*scale=*/0.1);
  MetaPathOptions mp;
  mp.max_hops = 3;
  mp.max_paths = 10;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, mp);
  pipeline::ArtifactCache cache;
  pipeline::RunSpec run;
  run.ratio = 0.05;
  const auto res = pipeline::RunMethod(ctx, "freehgc", run, FastConfig(),
                                       {nullptr, &cache});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->accuracy, 100.0f / static_cast<float>(g.num_classes()));
}

}  // namespace
}  // namespace freehgc
