#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "datasets/generator.h"
#include "graph/serialize.h"
#include "obs/metrics.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/method.h"
#include "pipeline/sweep.h"

namespace freehgc::pipeline {
namespace {

// --- registry ---------------------------------------------------------------

TEST(MethodRegistryTest, BuiltinMethodsRegistered) {
  const std::vector<std::string> keys = MethodRegistry::Global().Keys();
  const std::set<std::string> expected = {
      "random", "herding", "kcenter", "coarsening",
      "gcond",  "hgcond",  "freehgc"};
  for (const auto& key : expected) {
    EXPECT_TRUE(std::count(keys.begin(), keys.end(), key)) << key;
    const CondensationMethod* m = MethodRegistry::Global().Find(key);
    ASSERT_NE(m, nullptr) << key;
    EXPECT_EQ(m->key(), key);
  }
  EXPECT_EQ(MethodRegistry::Global().Find("no-such-method"), nullptr);
}

// The seven builtin keys, in the paper's method order.
const char* const kBuiltinKeys[] = {"random", "herding", "kcenter",
                                    "coarsening", "gcond", "hgcond",
                                    "freehgc"};

TEST(MethodRegistryTest, EnumFacadeResolvesThroughRegistry) {
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"random", "Random-HG"},
      {"herding", "Herding-HG"},
      {"kcenter", "K-Center-HG"},
      {"coarsening", "Coarsening-HG"},
      {"gcond", "GCond"},
      {"hgcond", "HGCond"},
      {"freehgc", "FreeHGC"},
  };
  for (const auto& [key, name] : expected) {
    const CondensationMethod* m = MethodRegistry::Global().Find(key);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->display_name(), name);
  }
}

TEST(MethodNameTest, AllNamed) {
  EXPECT_EQ(DisplayName("freehgc"), "FreeHGC");
  EXPECT_EQ(DisplayName("hgcond"), "HGCond");
  EXPECT_EQ(DisplayName("coarsening"), "Coarsening-HG");
  EXPECT_EQ(DisplayName("no-such-method"), "no-such-method");
}

TEST(MethodRegistryTest, UnknownKeyIsNotFound) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, mp);
  auto res = RunMethod(ctx, "no-such-method", RunSpec{}, hgnn::HgnnConfig{});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
}

// --- running methods --------------------------------------------------------

TEST(AggregateTest, MeanAndStd) {
  const MeanStd m = Aggregate({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.std, 1.0);
  const MeanStd single = Aggregate({5.0});
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
  const MeanStd empty = Aggregate({});
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(CellTest, Formats) {
  EXPECT_EQ(Cell({91.274, 0.456}), "91.27 ± 0.46");
}

TEST(TablePrinterTest, PrintsWithoutCrashing) {
  TablePrinter t({"Dataset", "Acc"});
  t.AddRow({"ACM", "91.3"});
  t.AddRow({"DBLP"});  // short row padded
  t.Print();
}

// Index into kBuiltinKeys. A printer-less 4-byte struct on purpose: ctest
// names each instance after gtest's byte dump of the parameter, and those
// names are tracked across changes.
struct MethodIndex {
  int32_t index;
};

class RunMethodTest : public ::testing::TestWithParam<MethodIndex> {};

TEST_P(RunMethodTest, EndToEndOnToy) {
  const HeteroGraph g = datasets::MakeToy(5);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 6;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, mp);
  RunSpec run;
  run.ratio = 0.2;
  run.seed = 1;
  run.gm.outer_iters = 2;
  run.gm.inner_iters = 2;
  run.gm.relay_inits = 2;
  hgnn::HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 30;
  auto res = RunMethod(ctx, kBuiltinKeys[GetParam().index], run, cfg);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->oom);
  EXPECT_GE(res->accuracy, 0.0f);
  EXPECT_LE(res->accuracy, 100.0f);
  EXPECT_GT(res->storage_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, RunMethodTest,
    ::testing::Values(MethodIndex{0}, MethodIndex{1}, MethodIndex{2},
                      MethodIndex{3}, MethodIndex{4}, MethodIndex{5},
                      MethodIndex{6}),
    [](const auto& info) {
      std::string out;
      for (char c : DisplayName(kBuiltinKeys[info.param.index])) {
        if (c != '-') out += c;
      }
      return out;
    });

TEST(RunMethodSeedsTest, AggregatesOverSeeds) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, mp);
  RunSpec run;
  run.ratio = 0.2;
  hgnn::HgnnConfig cfg;
  cfg.hidden = 8;
  cfg.epochs = 20;
  const AggregatedRun agg = RunMethodSeeds(ctx, "random", run, cfg, {1, 2, 3});
  EXPECT_FALSE(agg.oom);
  EXPECT_GE(agg.accuracy.mean, 0.0);
  EXPECT_GE(agg.accuracy.std, 0.0);
}

// --- artifact cache ---------------------------------------------------------

TEST(ArtifactCacheTest, ComposedMemoizesByGraphPathAndBudget) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_GE(paths.size(), 2u);

  ArtifactCache cache;
  const auto a = cache.Composed(g, paths[0], 0, nullptr);
  const auto b = cache.Composed(g, paths[0], 0, nullptr);
  EXPECT_EQ(a.get(), b.get());  // same pinned entry, served from the memo
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(*a, ComposeAdjacency(g, paths[0], 0));

  // A different path or row budget is a different entry.
  cache.Composed(g, paths[1], 0, nullptr);
  cache.Composed(g, paths[0], 4, nullptr);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_GT(cache.stats().bytes, 0u);

  cache.Clear();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ArtifactCacheTest, TrainRowEntriesAreDistinctFromFullOnes) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_FALSE(paths.empty());
  const MetaPath& p = paths.back();

  ArtifactCache cache;
  auto full = cache.Composed(g, p, 512, nullptr);
  auto train = cache.Composed(g, p, 512, nullptr, RowSet::kTrain);
  EXPECT_NE(full.get(), train.get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.Composed(g, p, 512, nullptr, RowSet::kTrain).get(),
            train.get());
  EXPECT_EQ(cache.Composed(g, p, 512, nullptr, RowSet::kAll).get(),
            full.get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(*full, ComposeAdjacency(g, p, 512));
  EXPECT_EQ(*train, ComposeAdjacency(g, p, 512, nullptr, &g.train_index()));
  EXPECT_LT(train->nnz(), full->nnz());

  // Both entries spill under their own names and restore bit-identically.
  const std::string dir = ::testing::TempDir() + "/train_rows_spill";
  ArtifactCache::SpillOptions spill;
  spill.resident_bytes_budget = 0;
  spill.spill_dir = dir;
  ASSERT_TRUE(cache.ConfigureSpill(spill).ok());
  const CsrMatrix full_copy = *full, train_copy = *train;
  full.reset();  // unpinned: the trim may evict both entries
  train.reset();
  cache.TrimToBudget();
  EXPECT_EQ(cache.stats().spills, 2);
  const auto full_back = cache.Composed(g, p, 512, nullptr);
  const auto train_back = cache.Composed(g, p, 512, nullptr, RowSet::kTrain);
  EXPECT_EQ(cache.stats().restores, 2);
  EXPECT_EQ(*full_back, full_copy);
  EXPECT_EQ(*train_back, train_copy);
}

TEST(CondenseCacheTest, FreeHgcComposesTrainRowsForSelectionOnly) {
  // Target selection composes the train-pool rows of every path; NIM
  // composes the full product of each father-ending path it scores. A
  // second run composes nothing new.
  obs::Counter& compose_calls =
      obs::MetricsRegistry::Global().GetCounter("metapath.compose_calls");
  const HeteroGraph g = datasets::MakeToy(7);
  core::FreeHgcOptions opts;
  opts.ratio = 0.3;
  opts.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);

  ArtifactCache cache;
  const int64_t before = compose_calls.Value();
  auto first = core::Condense(g, opts, nullptr, &cache);
  ASSERT_TRUE(first.ok());
  const int64_t first_calls = compose_calls.Value() - before;
  EXPECT_GT(first_calls, static_cast<int64_t>(paths.size()));
  EXPECT_EQ(cache.stats().misses, first_calls);
  // Every path's train-row entry is resident: a lookup is a hit.
  const ArtifactCache::Stats after_first = cache.stats();
  for (const MetaPath& p : paths) {
    cache.Composed(g, p, opts.max_row_nnz, nullptr, RowSet::kTrain);
  }
  EXPECT_EQ(cache.stats().misses, after_first.misses);

  auto second = core::Condense(g, opts, nullptr, &cache);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(compose_calls.Value() - before, first_calls);
  EXPECT_EQ(cache.stats().misses, after_first.misses);
  EXPECT_EQ(first->graph.ContentFingerprint(),
            second->graph.ContentFingerprint());
}

TEST(ArtifactCacheTest, PropagatedAndBaselineMemoize) {
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const hgnn::EvalContext ctx = hgnn::BuildEvalContext(g, mp);

  ArtifactCache cache;
  const auto f1 = cache.Propagated(g, ctx.paths, mp.max_row_nnz, nullptr);
  const auto f2 = cache.Propagated(g, ctx.paths, mp.max_row_nnz, nullptr);
  EXPECT_EQ(f1.get(), f2.get());
  ASSERT_EQ(f1->blocks.size(), ctx.full_features.blocks.size());
  for (size_t i = 0; i < f1->blocks.size(); ++i) {
    EXPECT_EQ(f1->blocks[i], ctx.full_features.blocks[i]) << i;
  }

  hgnn::HgnnConfig cfg;
  cfg.epochs = 3;
  cfg.patience = 0;
  const auto before = cache.stats();
  const hgnn::EvalMetrics m1 = cache.WholeGraphBaseline(ctx, cfg, nullptr);
  const hgnn::EvalMetrics m2 = cache.WholeGraphBaseline(ctx, cfg, nullptr);
  EXPECT_EQ(m1.test_accuracy, m2.test_accuracy);
  EXPECT_EQ(m1.macro_f1, m2.macro_f1);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST(ArtifactCacheTest, FingerprintDistinguishesGraphContent) {
  ArtifactCache cache;
  const HeteroGraph a = datasets::MakeToy(7);
  const HeteroGraph b = datasets::MakeToy(7);
  const HeteroGraph c = datasets::MakeToy(8);
  EXPECT_EQ(cache.FingerprintOf(a), cache.FingerprintOf(b));
  EXPECT_NE(cache.FingerprintOf(a), cache.FingerprintOf(c));
  // Memoized: repeated lookups agree.
  EXPECT_EQ(cache.FingerprintOf(a), cache.FingerprintOf(a));
}

TEST(ArtifactCacheTest, FingerprintFollowsTheGraphNotItsAddress) {
  // Graph B is built in the storage graph A was freed from, with equal
  // node, edge and relation counts and one different feature value: it
  // must get its own fingerprint and its own cache entries.
  ArtifactCache cache;
  std::optional<HeteroGraph> slot;
  slot.emplace(datasets::MakeToy(7));
  const HeteroGraph* storage = &*slot;
  const TypeId t = slot->target_type();
  ASSERT_TRUE(slot->HasFeatures(t));
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(*slot, t, mp);
  ASSERT_FALSE(paths.empty());
  const uint64_t fp_a = cache.FingerprintOf(*slot);
  const auto adj_a = cache.Composed(*slot, paths[0], 0, nullptr);

  HeteroGraph b = datasets::MakeToy(7);
  Matrix features = b.Features(t);
  features.At(0, 0) += 1.0f;
  ASSERT_TRUE(b.SetFeatures(t, std::move(features)).ok());
  slot.reset();
  slot.emplace(std::move(b));
  ASSERT_EQ(&*slot, storage);
  const uint64_t fp_b = cache.FingerprintOf(*slot);
  EXPECT_NE(fp_b, fp_a);
  const auto adj_b = cache.Composed(*slot, paths[0], 0, nullptr);
  EXPECT_NE(adj_b.get(), adj_a.get());
  EXPECT_EQ(cache.stats().misses, 2);

  // A mutator clears the memo: restoring A's feature value restores A's
  // fingerprint.
  Matrix restored = slot->Features(t);
  restored.At(0, 0) -= 1.0f;
  ASSERT_TRUE(slot->SetFeatures(t, std::move(restored)).ok());
  EXPECT_EQ(slot->ContentFingerprint(), fp_a);
}

TEST(ArtifactCacheTest, ConcurrentColdLookupsComputeOnce) {
  // Single flight: N threads asking for the same cold Propagated,
  // Composed and Diversity keys run one propagation, one compose and one
  // Jaccard pass, and every caller gets the same pinned entry.
  const HeteroGraph g = datasets::MakeToy(7);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto prop_paths = EnumerateMetaPaths(g, g.target_type(), mp);
  const MetaPath path = prop_paths.back();
  // The diversity group: the largest set of paths (up to 3 hops)
  // sharing an end type.
  MetaPathOptions mp3 = mp;
  mp3.max_hops = 3;
  const auto longer_paths = EnumerateMetaPaths(g, g.target_type(), mp3);
  std::vector<MetaPath> group;
  for (const MetaPath& p : longer_paths) {
    auto same_end = FilterByEndType(longer_paths, p.end_type());
    if (same_end.size() > group.size()) group = std::move(same_end);
  }
  ASSERT_GE(group.size(), 2u);
  const int64_t path_in_group = std::count_if(
      group.begin(), group.end(),
      [&](const MetaPath& p) { return p.relations == path.relations; });

  obs::Counter& blocks =
      obs::MetricsRegistry::Global().GetCounter("hgnn.blocks_propagated");
  int64_t one_build = blocks.Value();
  {
    ArtifactCache reference;
    reference.Propagated(g, prop_paths, mp.max_row_nnz, nullptr);
  }
  one_build = blocks.Value() - one_build;
  ASSERT_GT(one_build, 0);

  constexpr int kThreads = 8;
  ArtifactCache cache;
  std::vector<std::shared_ptr<const hgnn::PropagatedFeatures>> props(
      kThreads);
  std::vector<std::shared_ptr<const CsrMatrix>> adjs(kThreads);
  std::vector<std::shared_ptr<const CsrMatrix>> divs(kThreads);
  std::vector<int> propagated(kThreads, 0);
  std::atomic<int> ready{0};
  const int64_t before = blocks.Value();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      exec::ExecContext ex(1);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      bool built = false;
      props[static_cast<size_t>(i)] =
          cache.Propagated(g, prop_paths, mp.max_row_nnz, &ex, &built);
      propagated[static_cast<size_t>(i)] = built ? 1 : 0;
      adjs[static_cast<size_t>(i)] = cache.Composed(g, path, 0, &ex);
      divs[static_cast<size_t>(i)] =
          cache.Diversity(g, group, 0, &ex, RowSet::kAll);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(blocks.Value() - before, one_build);
  // The one diversity build composes its group through the cache: a hit
  // for `path` (its builder already composed it), a miss for the others.
  EXPECT_EQ(cache.stats().misses, 3 + static_cast<int64_t>(group.size()) -
                                      path_in_group);
  EXPECT_EQ(cache.stats().hits, 3 * (kThreads - 1) + path_in_group);
  EXPECT_EQ(std::count(propagated.begin(), propagated.end(), 1), 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(props[static_cast<size_t>(i)].get(), props[0].get()) << i;
    EXPECT_EQ(adjs[static_cast<size_t>(i)].get(), adjs[0].get()) << i;
    EXPECT_EQ(divs[static_cast<size_t>(i)].get(), divs[0].get()) << i;
  }
  std::vector<CsrMatrix> composed;
  for (const MetaPath& p : group) composed.push_back(ComposeAdjacency(g, p));
  std::vector<const CsrMatrix*> ptrs;
  for (const CsrMatrix& m : composed) ptrs.push_back(&m);
  EXPECT_EQ(*divs[0], PathDiversity(g, ptrs));
}

// --- determinism invariant --------------------------------------------------

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.datasets = {{.name = "toy", .ratios = {0.2}}};
  spec.methods = {"herding", "coarsening", "freehgc"};
  spec.seeds = {1, 2};
  spec.whole_graph_baseline = true;
  spec.eval_cfg.epochs = 10;
  return spec;
}

void ExpectBitIdentical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const SweepCell& x = a.cells[i];
    const SweepCell& y = b.cells[i];
    EXPECT_EQ(x.dataset, y.dataset);
    EXPECT_EQ(x.ratio, y.ratio);
    EXPECT_EQ(x.method, y.method);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.agg.oom, y.agg.oom) << x.method;
    EXPECT_EQ(x.agg.accuracy.mean, y.agg.accuracy.mean) << x.method;
    EXPECT_EQ(x.agg.accuracy.std, y.agg.accuracy.std) << x.method;
    EXPECT_EQ(x.agg.storage_bytes, y.agg.storage_bytes) << x.method;
  }
  ASSERT_EQ(a.wholes.size(), b.wholes.size());
  for (size_t i = 0; i < a.wholes.size(); ++i) {
    EXPECT_EQ(a.wholes[i].metrics.test_accuracy,
              b.wholes[i].metrics.test_accuracy);
    EXPECT_EQ(a.wholes[i].metrics.macro_f1, b.wholes[i].metrics.macro_f1);
  }
}

TEST(SweepDeterminismTest, CacheOnOffAndThreadCountsBitIdentical) {
  // The hard invariant: cached and uncached sweeps produce bit-identical
  // cell values, at every thread count.
  std::vector<SweepResult> results;
  for (int threads : {1, 2, 4}) {
    for (bool use_cache : {false, true}) {
      exec::ExecContext ex(threads);
      PipelineEnv env;
      env.exec = &ex;
      SweepSpec spec = SmallSpec();
      spec.use_cache = use_cache;
      SweepRunner runner(std::move(spec), env);
      auto result = runner.Run();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->cache_stats.hits > 0 || result->cache_stats.misses > 0,
                use_cache);
      results.push_back(std::move(*result));
    }
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectBitIdentical(results[0], results[i]);
  }
  // The machine-readable record's deterministic sections agree too.
  const std::string cells0 =
      results[0].ToJson().substr(0, results[0].ToJson().find("\"timing\""));
  for (size_t i = 1; i < results.size(); ++i) {
    const std::string json = results[i].ToJson();
    EXPECT_EQ(cells0, json.substr(0, json.find("\"timing\"")));
  }
}

TEST(SweepDeterminismTest, WarmSweepDoesStrictlyFewerSpgemmCalls) {
  obs::Counter& spgemm =
      obs::MetricsRegistry::Global().GetCounter("spgemm.calls");
  SweepRunner runner(SmallSpec());

  const int64_t before_cold = spgemm.Value();
  auto cold = runner.Run();
  ASSERT_TRUE(cold.ok());
  const int64_t cold_calls = spgemm.Value() - before_cold;

  const int64_t before_warm = spgemm.Value();
  auto warm = runner.Run();  // same runner: the cache is warm
  ASSERT_TRUE(warm.ok());
  const int64_t warm_calls = spgemm.Value() - before_warm;

  EXPECT_GT(cold_calls, 0);
  EXPECT_LT(warm_calls, cold_calls);
  EXPECT_EQ(warm->cache_stats.misses, 0);
  EXPECT_GT(warm->cache_stats.hits, 0);
  ExpectBitIdentical(*cold, *warm);
}

TEST(CondenseCacheTest, CacheOnVsOffProducesIdenticalCondensedGraph) {
  const HeteroGraph g = datasets::MakeToy(7);
  core::FreeHgcOptions opts;
  opts.ratio = 0.3;
  opts.max_hops = 2;
  ArtifactCache cache;
  auto uncached = core::Condense(g, opts);
  auto cached1 = core::Condense(g, opts, nullptr, &cache);
  auto cached2 = core::Condense(g, opts, nullptr, &cache);  // warm
  ASSERT_TRUE(uncached.ok());
  ASSERT_TRUE(cached1.ok());
  ASSERT_TRUE(cached2.ok());
  EXPECT_GT(cache.stats().hits, 0);
  EXPECT_EQ(uncached->selected_target, cached1->selected_target);
  EXPECT_EQ(uncached->selected_target, cached2->selected_target);
  EXPECT_EQ(uncached->graph.ContentFingerprint(),
            cached1->graph.ContentFingerprint());
  EXPECT_EQ(uncached->graph.ContentFingerprint(),
            cached2->graph.ContentFingerprint());
}

TEST(PrepareDatasetTest, FreeHgcOnPreparedCacheComposesNothingNew) {
  // Preparing a dataset composes nothing: propagation runs right to left
  // over the relations. FreeHGC's first run composes what its selection
  // needs into the cache, a second run composes nothing new, and both
  // are byte-equal to an uncached core::Condense.
  obs::Counter& compose_calls =
      obs::MetricsRegistry::Global().GetCounter("metapath.compose_calls");
  ArtifactCache cache;
  PipelineEnv env;
  env.cache = &cache;
  DatasetSpec toy;
  toy.name = "toy";
  const int64_t composed_before = compose_calls.Value();
  auto data = PrepareDataset(toy, env);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(compose_calls.Value(), composed_before);
  const hgnn::EvalContext& ctx = (*data)->ctx;
  EXPECT_EQ(ctx.full, &(*data)->graph);
  EXPECT_EQ(cache.stats().misses, 1);  // the propagated blocks

  RunSpec run;
  run.ratio = 0.3;
  const CondensationMethod* freehgc =
      MethodRegistry::Global().Find("freehgc");
  const ArtifactCache::Stats prepared = cache.stats();
  auto first = freehgc->Condense(ctx, run, env);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const ArtifactCache::Stats after_first = cache.stats();
  EXPECT_GT(after_first.misses, prepared.misses);
  EXPECT_GT(compose_calls.Value(), composed_before);

  const int64_t composed_first = compose_calls.Value();
  auto second = freehgc->Condense(ctx, run, env);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(cache.stats().misses, after_first.misses);
  EXPECT_GT(cache.stats().hits, after_first.hits);
  EXPECT_EQ(compose_calls.Value(), composed_first);

  // An uncached core::Condense of the prepared graph under `mp`.
  auto direct_bytes = [&](const MetaPathOptions& mp) {
    core::FreeHgcOptions fopts;
    fopts.ratio = run.ratio;
    static_cast<MetaPathOptions&>(fopts) = mp;
    auto res = core::Condense((*data)->graph, fopts);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) return std::string();
    auto bytes = SerializeHeteroGraph(res->graph);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  };
  const std::string cold_bytes = direct_bytes(ctx.options);
  auto first_bytes = SerializeHeteroGraph(first->graph);
  auto second_bytes = SerializeHeteroGraph(second->graph);
  ASSERT_TRUE(first_bytes.ok() && second_bytes.ok());
  EXPECT_EQ(*first_bytes, cold_bytes);
  EXPECT_EQ(*second_bytes, cold_bytes);

  // The registry hands the context's whole meta-path configuration on: a
  // context that differs from the defaults in all three fields gives
  // core::Condense's bytes under those fields, and each field counts, so
  // a hand-off that dropped one would give the bytes of a reset below.
  const MetaPathOptions other{.max_hops = 3, .max_row_nnz = 4, .max_paths = 3};
  const hgnn::EvalContext other_ctx =
      BuildEvalContext((*data)->graph, other, env);
  auto handed = freehgc->Condense(other_ctx, run, env);
  ASSERT_TRUE(handed.ok()) << handed.status().ToString();
  auto handed_bytes = SerializeHeteroGraph(handed->graph);
  ASSERT_TRUE(handed_bytes.ok());
  EXPECT_EQ(*handed_bytes, direct_bytes(other));
  const MetaPathOptions defaults;
  MetaPathOptions hops = other, paths = other, budget = other;
  hops.max_hops = defaults.max_hops;
  paths.max_paths = defaults.max_paths;
  budget.max_row_nnz = defaults.max_row_nnz;
  EXPECT_NE(*handed_bytes, direct_bytes(hops));
  EXPECT_NE(*handed_bytes, direct_bytes(paths));
  EXPECT_NE(*handed_bytes, direct_bytes(budget));
}

TEST(PrepareDatasetTest, CachedContextSharesTheCacheEntrysBlocks) {
  // With a cache, the prepared context aliases the cache entry's owned
  // blocks instead of copying them.
  ArtifactCache cache;
  PipelineEnv env;
  env.cache = &cache;
  DatasetSpec toy;
  toy.name = "toy";
  auto data = PrepareDataset(toy, env);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const hgnn::EvalContext& ctx = (*data)->ctx;

  const ArtifactCache::Stats before = cache.stats();
  const auto pin = cache.Propagated((*data)->graph, ctx.paths,
                                    ctx.options.max_row_nnz, nullptr);
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);
  ASSERT_EQ(pin->blocks.size(), ctx.full_features.blocks.size());
  for (size_t i = 0; i < pin->blocks.size(); ++i) {
    ASSERT_FALSE(pin->blocks[i].is_mapped()) << i;
    EXPECT_EQ(ctx.full_features.blocks[i].data(), pin->blocks[i].data())
        << i;
  }
}

}  // namespace
}  // namespace freehgc::pipeline
