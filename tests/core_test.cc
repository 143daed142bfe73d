#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/freehgc.h"
#include "core/other_types.h"
#include "core/selection_util.h"
#include "core/target_selection.h"
#include "datasets/generator.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"
#include "sparse/ops.h"

namespace freehgc::core {
namespace {

/// Row-nnz budget for composed adjacencies (FreeHgcOptions' default).
constexpr int64_t kMaxRowNnz = 512;

CsrMatrix Adj(int32_t rows, int32_t cols, std::vector<CooEntry> e) {
  auto r = CsrMatrix::FromCoo(rows, cols, std::move(e));
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

// --- selection_util ---------------------------------------------------------

TEST(SelectionUtilTest, RandomSelectBudgetAndDeterminism) {
  std::vector<int32_t> pool = {10, 20, 30, 40, 50};
  const auto a = RandomSelect(pool, 3, 1);
  const auto b = RandomSelect(pool, 3, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 3u);
  for (int32_t v : a) EXPECT_TRUE(std::count(pool.begin(), pool.end(), v));
  EXPECT_EQ(RandomSelect(pool, 99, 1).size(), 5u);
  EXPECT_TRUE(RandomSelect(pool, 0, 1).empty());
}

TEST(SelectionUtilTest, HerdingTracksMean) {
  // Three tight clusters; herding with budget 3 should pick one point per
  // cluster region to track the global mean... at minimum, selections are
  // unique pool members and deterministic.
  Matrix f(6, 2);
  const float coords[6][2] = {{0, 0}, {0.1f, 0}, {10, 0},
                              {10.1f, 0}, {5, 8}, {5.1f, 8}};
  for (int i = 0; i < 6; ++i) {
    f.At(i, 0) = coords[i][0];
    f.At(i, 1) = coords[i][1];
  }
  std::vector<int32_t> pool = {0, 1, 2, 3, 4, 5};
  const auto sel = HerdingSelect(f, pool, 4);
  EXPECT_EQ(sel.size(), 4u);
  std::set<int32_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 4u);
  // The running mean of the selection approximates the pool mean.
  const auto pool_mean = dense::ColumnMean(f, pool);
  const auto sel_mean = dense::ColumnMean(f, sel);
  EXPECT_NEAR(sel_mean[0], pool_mean[0], 2.5f);
  EXPECT_NEAR(sel_mean[1], pool_mean[1], 2.5f);
}

TEST(SelectionUtilTest, KCenterSpreadsOut) {
  // Points on a line; k-center with k=2 must pick near-opposite ends.
  Matrix f(5, 1);
  for (int i = 0; i < 5; ++i) f.At(i, 0) = static_cast<float>(i);
  std::vector<int32_t> pool = {0, 1, 2, 3, 4};
  const auto sel = KCenterSelect(f, pool, 2, 3);
  ASSERT_EQ(sel.size(), 2u);
  const float span = std::fabs(f.At(sel[0], 0) - f.At(sel[1], 0));
  EXPECT_GE(span, 2.0f);
}

TEST(SelectionUtilTest, PerClassBudgetProportional) {
  // 60 of class 0, 30 of class 1, 10 of class 2; budget 10 -> 6/3/1.
  std::vector<int32_t> labels(100);
  std::vector<int32_t> pool(100);
  for (int i = 0; i < 100; ++i) {
    pool[i] = i;
    labels[i] = i < 60 ? 0 : (i < 90 ? 1 : 2);
  }
  const auto b = PerClassBudget(labels, pool, 3, 10);
  EXPECT_EQ(b[0], 6);
  EXPECT_EQ(b[1], 3);
  EXPECT_EQ(b[2], 1);
  int32_t total = b[0] + b[1] + b[2];
  EXPECT_EQ(total, 10);
}

TEST(SelectionUtilTest, PerClassBudgetGivesEveryClassOne) {
  std::vector<int32_t> labels = {0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<int32_t> pool = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto b = PerClassBudget(labels, pool, 2, 2);
  EXPECT_GE(b[1], 1);  // minority class represented
}

TEST(SelectionUtilTest, PoolOfClass) {
  std::vector<int32_t> labels = {0, 1, 0, 1};
  std::vector<int32_t> pool = {0, 1, 2, 3};
  EXPECT_EQ(PoolOfClass(labels, pool, 1), (std::vector<int32_t>{1, 3}));
}

// --- greedy coverage ---------------------------------------------------------

TEST(GreedyCoverageTest, PrefersLargeUncoveredRows) {
  // Row 0 covers {0,1,2}; row 1 covers {0,1}; row 2 covers {3}.
  CsrMatrix adj = Adj(3, 4, {{0, 0, 1}, {0, 1, 1}, {0, 2, 1},
                             {1, 0, 1}, {1, 1, 1},
                             {2, 3, 1}});
  std::vector<int32_t> pool = {0, 1, 2};
  const auto sel = GreedyCoverageSelect(adj, pool, 2, nullptr,
                                        /*use_coverage=*/true);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0);  // largest row first
  EXPECT_EQ(sel[1], 2);  // row 1 is fully covered; row 2 adds a new column
}

TEST(GreedyCoverageTest, DiversityBreaksTies) {
  // Equal coverage rows; diversity should pick the high-diversity node.
  CsrMatrix adj = Adj(2, 2, {{0, 0, 1}, {1, 1, 1}});
  std::vector<float> div = {0.1f, 0.9f};
  const auto sel =
      GreedyCoverageSelect(adj, {0, 1}, 1, &div, /*use_coverage=*/true);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 1);
}

TEST(GreedyCoverageTest, MarginalGainsAreNonIncreasing) {
  // Submodularity: recorded marginal gains must be non-increasing when the
  // modular diversity term is off.
  const HeteroGraph g = datasets::MakeToy(21);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  ASSERT_FALSE(paths.empty());
  const CsrMatrix adj = ComposeAdjacency(g, paths.back());
  std::vector<int32_t> pool(static_cast<size_t>(adj.rows()));
  for (int32_t i = 0; i < adj.rows(); ++i) pool[static_cast<size_t>(i)] = i;
  std::vector<double> gains;
  GreedyCoverageSelect(adj, pool, 20, nullptr, true, &gains);
  for (size_t i = 1; i < gains.size(); ++i) {
    EXPECT_LE(gains[i], gains[i - 1] + 1e-9);
  }
}

TEST(GreedyCoverageTest, BudgetClamps) {
  CsrMatrix adj = Adj(2, 2, {{0, 0, 1}});
  EXPECT_EQ(GreedyCoverageSelect(adj, {0, 1}, 10, nullptr, true).size(), 2u);
  EXPECT_TRUE(GreedyCoverageSelect(adj, {}, 3, nullptr, true).empty());
}

// --- target selection ---------------------------------------------------------

class TargetSelectionRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(TargetSelectionRatioTest, BudgetAndClassBalanceHold) {
  const HeteroGraph g = datasets::MakeToy(31);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  const double ratio = GetParam();
  const int32_t budget = std::max<int32_t>(
      g.num_classes(),
      static_cast<int32_t>(ratio * g.NodeCount(g.target_type())));
  TargetSelectionOptions opts;
  pipeline::ArtifactCache cache;
  const auto sel =
      CondenseTargetNodes(g, paths, kMaxRowNnz, budget, opts, cache);
  EXPECT_LE(static_cast<int32_t>(sel.size()), budget + g.num_classes());
  EXPECT_GE(static_cast<int32_t>(sel.size()), std::min<int32_t>(
      budget, static_cast<int32_t>(g.train_index().size())) - g.num_classes());
  // Unique, in train pool.
  std::set<int32_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), sel.size());
  std::set<int32_t> train(g.train_index().begin(), g.train_index().end());
  for (int32_t v : sel) EXPECT_TRUE(train.count(v)) << v;
  // Every class represented.
  std::set<int32_t> classes;
  for (int32_t v : sel) classes.insert(g.labels()[static_cast<size_t>(v)]);
  EXPECT_EQ(static_cast<int32_t>(classes.size()), g.num_classes());
}

INSTANTIATE_TEST_SUITE_P(Ratios, TargetSelectionRatioTest,
                         ::testing::Values(0.1, 0.2, 0.4));

TEST(TargetSelectionTest, DeterministicAndAblationSwitchesChangeResult) {
  const HeteroGraph g = datasets::MakeAcm(3, /*scale=*/0.1);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 8;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  TargetSelectionOptions opts;
  pipeline::ArtifactCache cache;
  const auto a = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts, cache);
  const auto b = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts, cache);
  EXPECT_EQ(a, b);
  TargetSelectionOptions no_rf = opts;
  no_rf.use_receptive_field = false;
  TargetSelectionOptions no_jac = opts;
  no_jac.use_jaccard = false;
  const auto c = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, no_rf, cache);
  const auto d =
      CondenseTargetNodes(g, paths, kMaxRowNnz, 20, no_jac, cache);
  EXPECT_TRUE(a != c || a != d);  // switches have an effect
}

TEST(TargetSelectionTest, ScoresExposedForInterpretability) {
  const HeteroGraph g = datasets::MakeToy(33);
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  std::vector<double> scores;
  pipeline::ArtifactCache cache;
  const auto sel =
      CondenseTargetNodes(g, paths, kMaxRowNnz, 10, {}, cache, &scores);
  EXPECT_EQ(scores.size(),
            static_cast<size_t>(g.NodeCount(g.target_type())));
  // Selected nodes carry positive scores.
  for (int32_t v : sel) EXPECT_GT(scores[static_cast<size_t>(v)], 0.0);
}

/// Composes afresh on every lookup, memoizing nothing, while recording
/// the row set of every composition request, the size of every
/// diversity group and the number of NIM block requests; with
/// `force_full` it ignores the row set and serves the full product (what
/// selection composed before row restriction), diversity groups
/// included.
class RowSetRecorder final : public AdjacencyCache {
 public:
  explicit RowSetRecorder(bool force_full = false) : force_full_(force_full) {}

  std::shared_ptr<const CsrMatrix> Composed(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx,
                                            RowSet rows) override {
    requested.push_back(rows);
    return std::make_shared<const CsrMatrix>(
        Compose(g, p, max_row_nnz, ctx, rows));
  }

  std::shared_ptr<const CsrMatrix> Diversity(
      const HeteroGraph& g, const std::vector<MetaPath>& group,
      int64_t max_row_nnz, exec::ExecContext* ctx) override {
    diversity_groups.push_back(group.size());
    std::vector<CsrMatrix> adjs;
    for (const MetaPath& p : group) {
      adjs.push_back(Compose(g, p, max_row_nnz, ctx, RowSet::kTrain));
    }
    std::vector<const CsrMatrix*> composed;
    for (const CsrMatrix& a : adjs) composed.push_back(&a);
    return std::make_shared<const CsrMatrix>(PathDiversity(g, composed, ctx));
  }

  std::shared_ptr<const CsrMatrix> NimBlock(const HeteroGraph& g,
                                            const MetaPath& p,
                                            int64_t max_row_nnz,
                                            exec::ExecContext* ctx) override {
    ++nim_blocks;
    return std::make_shared<const CsrMatrix>(sparse::SymNormalize(
        sparse::BipartiteBlock(Compose(g, p, max_row_nnz, ctx, RowSet::kAll),
                               ctx),
        ctx));
  }

  std::vector<RowSet> requested;
  std::vector<size_t> diversity_groups;
  int nim_blocks = 0;

 private:
  CsrMatrix Compose(const HeteroGraph& g, const MetaPath& p,
                    int64_t max_row_nnz, exec::ExecContext* ctx,
                    RowSet rows) const {
    const bool train = !force_full_ && rows == RowSet::kTrain;
    return ComposeAdjacency(g, p, max_row_nnz, ctx,
                            train ? &g.train_index() : nullptr);
  }

  bool force_full_;
};

TEST(TargetSelectionTest, TrainRowsGiveTheFullRowsPicksAndPoolScores) {
  // Selection reads only train-pool rows, so composing just those rows
  // changes nothing: the picks and every pool score equal a run on the
  // full products, on a memo-free recorder and on a fresh and a warm
  // ArtifactCache, at 1 and 4 threads.
  const HeteroGraph g = datasets::MakeAcm(3, /*scale=*/0.1);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 8;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  const TargetSelectionOptions opts;
  exec::ExecContext ex1(1);
  RowSetRecorder full(/*force_full=*/true);
  std::vector<double> want_scores;
  const auto want = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts,
                                        full, &want_scores, &ex1);
  ASSERT_EQ(want.size(), 20u);
  // One diversity lookup per end-type group of two or more paths.
  std::map<TypeId, size_t> group_size;
  for (const MetaPath& p : paths) ++group_size[p.end_type()];
  std::vector<size_t> want_groups;
  for (const auto& [end, n] : group_size) {
    if (n > 1) want_groups.push_back(n);
  }
  ASSERT_FALSE(want_groups.empty());
  EXPECT_EQ(full.diversity_groups, want_groups);
  for (int threads : {1, 4}) {
    exec::ExecContext ex(threads);
    RowSetRecorder recorder;
    std::vector<double> recorded_scores;
    EXPECT_EQ(CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts, recorder,
                                  &recorded_scores, &ex),
              want)
        << threads;
    for (int32_t v : g.train_index()) {
      const size_t i = static_cast<size_t>(v);
      EXPECT_EQ(recorded_scores[i], want_scores[i]) << threads << " " << v;
    }
    EXPECT_EQ(recorder.requested,
              std::vector<RowSet>(paths.size(), RowSet::kTrain));
    EXPECT_EQ(recorder.diversity_groups, want_groups) << threads;

    // On an ArtifactCache a repeated selection is served entirely from
    // the cache: no miss (no compose and no PerPathJaccard), and the same
    // picks and scores as the recorder's run.
    pipeline::ArtifactCache artifacts;
    std::vector<double> fresh_scores, warm_scores;
    const auto fresh = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts,
                                           artifacts, &fresh_scores, &ex);
    const int64_t misses = artifacts.stats().misses;
    EXPECT_GT(misses, static_cast<int64_t>(paths.size()))
        << "no diversity entry was cached";
    const auto warm = CondenseTargetNodes(g, paths, kMaxRowNnz, 20, opts,
                                          artifacts, &warm_scores, &ex);
    EXPECT_EQ(artifacts.stats().misses, misses) << threads;
    EXPECT_EQ(fresh, want) << threads;
    EXPECT_EQ(warm, want) << threads;
    EXPECT_EQ(fresh_scores, recorded_scores) << threads;
    EXPECT_EQ(warm_scores, recorded_scores) << threads;
  }
}

// --- NIM ----------------------------------------------------------------------

TEST(NimTest, SelectsFathersConnectedToSelectedTargets) {
  // Targets 0,1 connect to father 0; target 2 to father 1; father 2 is
  // isolated. Selecting targets {0,1} must rank father 0 first, father 2
  // last.
  HeteroGraph g;
  const TypeId t = g.AddNodeType("t", 3).value();
  const TypeId f = g.AddNodeType("f", 3).value();
  ASSERT_TRUE(g.AddRelation("tf", t, f,
                            Adj(3, 3, {{0, 0, 1}, {1, 0, 1}, {2, 1, 1}}))
                  .ok());
  g.EnsureReverseRelations();
  Matrix x(3, 2);
  ASSERT_TRUE(g.SetFeatures(t, x).ok());
  ASSERT_TRUE(g.SetFeatures(f, x).ok());
  ASSERT_TRUE(g.SetTarget(t, {0, 1, 0}, 2).ok());
  ASSERT_TRUE(g.SetSplit({0, 1, 2}, {}, {}).ok());

  MetaPathOptions mp;
  mp.max_hops = 1;
  const auto paths = EnumerateMetaPaths(g, t, mp);
  NimOptions nopts;
  pipeline::ArtifactCache cache;
  const auto sel = CondenseFatherType(g, f, FilterByEndType(paths, f),
                                      kMaxRowNnz, {0, 1}, 1, nopts, cache);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 0);
}

TEST(NimTest, BudgetZeroAndClamping) {
  const HeteroGraph g = datasets::MakeToy(41);
  const TypeId father = g.TypeByName("f").value();
  MetaPathOptions mp;
  mp.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  NimOptions nopts;
  pipeline::ArtifactCache cache;
  EXPECT_TRUE(CondenseFatherType(g, father, FilterByEndType(paths, father),
                                 kMaxRowNnz, g.train_index(), 0, nopts,
                                 cache)
                  .empty());
  const auto all = CondenseFatherType(g, father,
                                      FilterByEndType(paths, father),
                                      kMaxRowNnz, g.train_index(), 10000,
                                      nopts, cache);
  EXPECT_EQ(static_cast<int32_t>(all.size()), g.NodeCount(father));
}

TEST(NimTest, PprReadsOnlyNimBlocksAndPushReadsTheFullProduct) {
  // The PPR scorer asks the cache for one NIM block per path and never
  // for a composed adjacency, while the push scorer still embeds the
  // full product. The PPR picks match on a memo-free recorder and on a
  // fresh and a warm ArtifactCache at 1 and 4 threads (a warm call
  // builds nothing), with the paths scored concurrently.
  const HeteroGraph g = datasets::MakeAcm(3, /*scale=*/0.1);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 8;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  TypeId father = -1;
  size_t most = 0;
  for (const MetaPath& p : paths) {
    const size_t n = FilterByEndType(paths, p.end_type()).size();
    if (p.end_type() != g.target_type() && n > most) {
      father = p.end_type();
      most = n;
    }
  }
  ASSERT_GE(most, 2u) << "no father type with two paths";
  const auto to_father = FilterByEndType(paths, father);
  std::vector<int32_t> targets;
  for (size_t i = 0; i < g.train_index().size(); i += 3) {
    targets.push_back(g.train_index()[i]);
  }
  const int32_t budget = g.NodeCount(father) / 4;
  const NimOptions ppr;
  exec::ExecContext ex1(1);
  RowSetRecorder want_recorder;
  const auto want = CondenseFatherType(g, father, to_father, kMaxRowNnz,
                                       targets, budget, ppr, want_recorder,
                                       &ex1);
  ASSERT_EQ(want.size(), static_cast<size_t>(budget));
  EXPECT_TRUE(want_recorder.requested.empty());
  EXPECT_EQ(want_recorder.nim_blocks, static_cast<int>(to_father.size()));
  for (int threads : {1, 4}) {
    exec::ExecContext ex(threads);
    RowSetRecorder recorder;
    EXPECT_EQ(CondenseFatherType(g, father, to_father, kMaxRowNnz, targets,
                                 budget, ppr, recorder, &ex),
              want)
        << threads;
    EXPECT_TRUE(recorder.requested.empty()) << threads;

    pipeline::ArtifactCache artifacts;
    EXPECT_EQ(CondenseFatherType(g, father, to_father, kMaxRowNnz, targets,
                                 budget, ppr, artifacts, &ex),
              want)
        << threads;
    const auto cold = artifacts.stats();
    EXPECT_EQ(cold.misses, static_cast<int64_t>(to_father.size()))
        << "a NIM block miss cached its composed product";
    EXPECT_EQ(CondenseFatherType(g, father, to_father, kMaxRowNnz, targets,
                                 budget, ppr, artifacts, &ex),
              want)
        << threads;
    EXPECT_EQ(artifacts.stats().misses, cold.misses) << threads;
  }

  NimOptions push;
  push.scorer = NimScorer::kPprPush;
  RowSetRecorder push_recorder;
  CondenseFatherType(g, father, to_father, kMaxRowNnz, targets, budget, push,
                     push_recorder, &ex1);
  EXPECT_EQ(push_recorder.requested,
            std::vector<RowSet>(to_father.size(), RowSet::kAll));
  EXPECT_EQ(push_recorder.nim_blocks, 0);
}

// --- ILM ----------------------------------------------------------------------

TEST(IlmTest, SynthesizesMeanFeatures) {
  // Father 0 has leaf neighbours {0, 1}; their mean feature must be the
  // hyper-node feature.
  HeteroGraph g;
  const TypeId t = g.AddNodeType("t", 1).value();
  const TypeId f = g.AddNodeType("f", 2).value();
  const TypeId l = g.AddNodeType("l", 3).value();
  ASSERT_TRUE(g.AddRelation("tf", t, f, Adj(1, 2, {{0, 0, 1}})).ok());
  ASSERT_TRUE(g.AddRelation("fl", f, l,
                            Adj(2, 3, {{0, 0, 1}, {0, 1, 1}, {1, 2, 1}}))
                  .ok());
  g.EnsureReverseRelations();
  Matrix xl(3, 2);
  xl.At(0, 0) = 2.0f;
  xl.At(1, 0) = 4.0f;
  xl.At(2, 0) = 100.0f;
  ASSERT_TRUE(g.SetFeatures(l, xl).ok());
  ASSERT_TRUE(g.SetFeatures(t, Matrix(1, 2)).ok());
  ASSERT_TRUE(g.SetFeatures(f, Matrix(2, 2)).ok());
  ASSERT_TRUE(g.SetTarget(t, {0}, 2).ok());

  std::vector<int32_t> kept_f = {0};
  const LeafSynthesis synth =
      SynthesizeLeafType(g, l, {{f, &kept_f}}, /*budget=*/5);
  ASSERT_EQ(synth.members.size(), 1u);
  EXPECT_EQ(synth.members[0], (std::vector<int32_t>{0, 1}));
  EXPECT_FLOAT_EQ(synth.features.At(0, 0), 3.0f);  // mean(2, 4)
}

TEST(IlmTest, MergesSmallestToBudget) {
  // Three fathers each with a distinct single leaf; budget 2 forces one
  // merge of the smallest hyper-nodes.
  HeteroGraph g;
  const TypeId t = g.AddNodeType("t", 1).value();
  const TypeId f = g.AddNodeType("f", 3).value();
  const TypeId l = g.AddNodeType("l", 3).value();
  ASSERT_TRUE(g.AddRelation("tf", t, f, Adj(1, 3, {{0, 0, 1}})).ok());
  ASSERT_TRUE(g.AddRelation("fl", f, l,
                            Adj(3, 3, {{0, 0, 1}, {1, 1, 1}, {2, 2, 1}}))
                  .ok());
  g.EnsureReverseRelations();
  ASSERT_TRUE(g.SetFeatures(l, Matrix(3, 2)).ok());
  ASSERT_TRUE(g.SetFeatures(t, Matrix(1, 2)).ok());
  ASSERT_TRUE(g.SetFeatures(f, Matrix(3, 2)).ok());
  ASSERT_TRUE(g.SetTarget(t, {0}, 2).ok());

  std::vector<int32_t> kept_f = {0, 1, 2};
  const LeafSynthesis synth =
      SynthesizeLeafType(g, l, {{f, &kept_f}}, /*budget=*/2);
  EXPECT_EQ(synth.members.size(), 2u);
  size_t total_members = 0;
  for (const auto& m : synth.members) total_members += m.size();
  EXPECT_EQ(total_members, 3u);
}

TEST(IlmTest, UnreachableLeafFallsBackToDegree) {
  const HeteroGraph g = datasets::MakeToy(43);
  const TypeId l = g.TypeByName("l").value();
  // No kept fathers at all.
  const LeafSynthesis synth = SynthesizeLeafType(g, l, {}, /*budget=*/3);
  EXPECT_LE(synth.members.size(), 3u);
  EXPECT_GT(synth.members.size(), 0u);
}

// --- assembly ------------------------------------------------------------------

TEST(AssembleTest, KeptAndSynthesizedTypesCombine) {
  const HeteroGraph g = datasets::MakeToy(51);
  std::vector<TypeMapping> mappings(3);
  // target: keep first 10; father: keep first 5; leaf: two hyper-nodes.
  for (int32_t v = 0; v < 10; ++v) mappings[0].keep.push_back(v);
  for (int32_t v = 0; v < 5; ++v) mappings[1].keep.push_back(v);
  mappings[2].synthesized = true;
  mappings[2].members = {{0, 1, 2}, {3, 4}};
  mappings[2].synthetic_features = Matrix(2, g.Features(2).cols());
  auto out = AssembleCondensedGraph(g, mappings);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->NodeCount(0), 10);
  EXPECT_EQ(out->NodeCount(1), 5);
  EXPECT_EQ(out->NodeCount(2), 2);
  EXPECT_TRUE(out->Validate().ok());
  EXPECT_EQ(out->train_index().size(), 10u);
}

TEST(AssembleTest, MembershipRoutesEdges) {
  // father-leaf edge (f0 -> l1) must appear as (f0 -> hyper containing l1).
  HeteroGraph g;
  const TypeId t = g.AddNodeType("t", 1).value();
  const TypeId f = g.AddNodeType("f", 1).value();
  const TypeId l = g.AddNodeType("l", 2).value();
  ASSERT_TRUE(g.AddRelation("tf", t, f, Adj(1, 1, {{0, 0, 1}})).ok());
  ASSERT_TRUE(g.AddRelation("fl", f, l, Adj(1, 2, {{0, 1, 1}})).ok());
  ASSERT_TRUE(g.SetFeatures(l, Matrix(2, 2)).ok());
  ASSERT_TRUE(g.SetTarget(t, {0}, 2).ok());
  std::vector<TypeMapping> mappings(3);
  mappings[0].keep = {0};
  mappings[1].keep = {0};
  mappings[2].synthesized = true;
  mappings[2].members = {{1}};
  mappings[2].synthetic_features = Matrix(1, 2);
  auto out = AssembleCondensedGraph(g, mappings);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->relation(1).adj.Contains(0, 0));
}

TEST(AssembleTest, RejectsInvalidMappings) {
  const HeteroGraph g = datasets::MakeToy(53);
  // Wrong arity.
  EXPECT_FALSE(AssembleCondensedGraph(g, {}).ok());
  // Synthesized target type forbidden.
  std::vector<TypeMapping> mappings(3);
  mappings[0].synthesized = true;
  mappings[0].members = {{0}};
  mappings[0].synthetic_features = Matrix(1, g.Features(0).cols());
  mappings[1].keep = {0};
  mappings[2].keep = {0};
  EXPECT_FALSE(AssembleCondensedGraph(g, mappings).ok());
  // Duplicate keep id.
  std::vector<TypeMapping> dup(3);
  dup[0].keep = {0, 0};
  dup[1].keep = {0};
  dup[2].keep = {0};
  EXPECT_FALSE(AssembleCondensedGraph(g, dup).ok());
}

TEST(AssembleTest, EmptyKeepListYieldsEmptyType) {
  // A non-target type may legitimately end up with zero kept nodes (tiny
  // budgets); assembly must produce an empty type with empty incident
  // relations rather than fail.
  const HeteroGraph g = datasets::MakeToy(57);
  std::vector<TypeMapping> mappings(3);
  for (int32_t v = 0; v < 10; ++v) mappings[0].keep.push_back(v);
  mappings[1].keep = {};  // father type: nothing kept
  mappings[2].keep = {0, 1};
  auto out = AssembleCondensedGraph(g, mappings);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->Validate().ok());
  EXPECT_EQ(out->NodeCount(1), 0);
  for (RelationId r = 0; r < out->NumRelations(); ++r) {
    if (out->relation(r).src_type == 1 || out->relation(r).dst_type == 1) {
      EXPECT_EQ(out->relation(r).adj.nnz(), 0) << out->relation(r).name;
    }
  }
}

TEST(AssembleTest, AllNonTargetTypesSynthesized) {
  // Every non-target type replaced by hyper-nodes at once (the ILM path
  // applied schema-wide); only the target keeps original ids.
  const HeteroGraph g = datasets::MakeToy(59);
  std::vector<TypeMapping> mappings(3);
  for (int32_t v = 0; v < 8; ++v) mappings[0].keep.push_back(v);
  for (TypeId t : {TypeId{1}, TypeId{2}}) {
    auto& m = mappings[static_cast<size_t>(t)];
    m.synthesized = true;
    const int32_t n = g.NodeCount(t);
    std::vector<int32_t> first, second;
    for (int32_t v = 0; v < n; ++v) {
      (v % 2 == 0 ? first : second).push_back(v);
    }
    m.members = {first, second};
    m.synthetic_features = Matrix(2, g.Features(t).cols());
  }
  auto out = AssembleCondensedGraph(g, mappings);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->Validate().ok());
  EXPECT_EQ(out->NodeCount(0), 8);
  EXPECT_EQ(out->NodeCount(1), 2);
  EXPECT_EQ(out->NodeCount(2), 2);
}

TEST(AssembleTest, ParallelEdgesCollapseIntoSummedWeights) {
  // f0 connects to l0 (weight 2) and l1 (weight 3); both leaves land in
  // the same hyper-node, so the routed edges become parallel and must
  // collapse into one edge of summed weight 5 (Eq. 15's reverse-edge
  // construction).
  HeteroGraph g;
  const TypeId t = g.AddNodeType("t", 1).value();
  const TypeId f = g.AddNodeType("f", 1).value();
  const TypeId l = g.AddNodeType("l", 2).value();
  ASSERT_TRUE(g.AddRelation("tf", t, f, Adj(1, 1, {{0, 0, 1}})).ok());
  ASSERT_TRUE(
      g.AddRelation("fl", f, l, Adj(1, 2, {{0, 0, 2}, {0, 1, 3}})).ok());
  ASSERT_TRUE(g.SetFeatures(l, Matrix(2, 2)).ok());
  ASSERT_TRUE(g.SetTarget(t, {0}, 2).ok());
  std::vector<TypeMapping> mappings(3);
  mappings[0].keep = {0};
  mappings[1].keep = {0};
  mappings[2].synthesized = true;
  mappings[2].members = {{0, 1}};
  mappings[2].synthetic_features = Matrix(1, 2);
  auto out = AssembleCondensedGraph(g, mappings);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const CsrMatrix& fl = out->relation(1).adj;
  ASSERT_EQ(fl.nnz(), 1);
  EXPECT_EQ(fl.RowIndices(0)[0], 0);
  EXPECT_FLOAT_EQ(fl.RowValues(0)[0], 5.0f);
}

// --- full pipeline ---------------------------------------------------------------

class CondenseRatioTest : public ::testing::TestWithParam<double> {};

TEST_P(CondenseRatioTest, InvariantsHold) {
  const HeteroGraph g = datasets::MakeDblp(61, /*scale=*/0.1);
  FreeHgcOptions opts;
  opts.ratio = GetParam();
  opts.max_hops = 2;
  opts.max_paths = 10;
  pipeline::ArtifactCache cache;
  auto res = Condense(g, opts, nullptr, &cache);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->graph.Validate().ok());
  EXPECT_EQ(res->graph.NumNodeTypes(), g.NumNodeTypes());
  EXPECT_EQ(res->graph.NumRelations(), g.NumRelations());
  // Node budget respected within rounding (each type <= ratio*N + slack).
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    EXPECT_LE(res->graph.NodeCount(t),
              static_cast<int32_t>(opts.ratio * g.NodeCount(t)) +
                  g.num_classes() + 1)
        << g.TypeName(t);
  }
  EXPECT_GT(res->seconds, 0.0);
  // Selected targets are valid training nodes.
  std::set<int32_t> train(g.train_index().begin(), g.train_index().end());
  for (int32_t v : res->selected_target) EXPECT_TRUE(train.count(v));
}

INSTANTIATE_TEST_SUITE_P(Ratios, CondenseRatioTest,
                         ::testing::Values(0.012, 0.024, 0.048, 0.096));

TEST(CondenseTest, RejectsBadOptions) {
  const HeteroGraph g = datasets::MakeToy(71);
  FreeHgcOptions opts;
  pipeline::ArtifactCache cache;
  opts.ratio = 0.0;
  EXPECT_FALSE(Condense(g, opts, nullptr, &cache).ok());
  opts.ratio = 1.5;
  EXPECT_FALSE(Condense(g, opts, nullptr, &cache).ok());
  HeteroGraph no_target;
  no_target.AddNodeType("x", 3).value();
  opts.ratio = 0.1;
  EXPECT_FALSE(Condense(no_target, opts, nullptr, &cache).ok());
}

TEST(CondenseTest, NullCacheIsInvalidArgument) {
  // Selection composes only through a cache, so Condense requires one.
  const HeteroGraph g = datasets::MakeToy(71);
  FreeHgcOptions opts;
  opts.ratio = 0.2;
  EXPECT_EQ(Condense(g, opts, nullptr, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CondenseTest, DeterministicUnderSeed) {
  const HeteroGraph g = datasets::MakeToy(73);
  FreeHgcOptions opts;
  opts.ratio = 0.2;
  opts.seed = 5;
  pipeline::ArtifactCache fresh_a, fresh_b;
  auto a = Condense(g, opts, nullptr, &fresh_a);
  auto b = Condense(g, opts, nullptr, &fresh_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selected_target, b->selected_target);
  EXPECT_EQ(a->graph.TotalNodes(), b->graph.TotalNodes());
  EXPECT_EQ(a->graph.TotalEdges(), b->graph.TotalEdges());
}

TEST(CondenseTest, AblationStrategiesRun) {
  const HeteroGraph g = datasets::MakeDblp(75, /*scale=*/0.05);
  for (auto ts : {TargetStrategy::kCriterion, TargetStrategy::kHerding,
                  TargetStrategy::kRandom}) {
    for (auto fs : {FatherStrategy::kNim, FatherStrategy::kHerding}) {
      for (auto ls : {LeafStrategy::kIlm, LeafStrategy::kHerding}) {
        FreeHgcOptions opts;
        opts.ratio = 0.05;
        opts.max_paths = 6;
        opts.target_strategy = ts;
        opts.father_strategy = fs;
        opts.leaf_strategy = ls;
        pipeline::ArtifactCache cache;
        auto res = Condense(g, opts, nullptr, &cache);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        EXPECT_TRUE(res->graph.Validate().ok());
      }
    }
  }
}

}  // namespace
}  // namespace freehgc::core
