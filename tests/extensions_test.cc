// Tests for the paper's extension points: alternative NIM scorers
// (Section IV-C's "NIM can be replaced by ...") and random-walk candidate
// pruning (Section IV-B's scalability note).
#include <gtest/gtest.h>

#include <set>

#include "core/freehgc.h"
#include "core/other_types.h"
#include "core/target_selection.h"
#include "datasets/generator.h"
#include "metapath/metapath.h"

namespace freehgc::core {
namespace {

/// Row-nnz budget for composed adjacencies (FreeHgcOptions' default).
constexpr int64_t kMaxRowNnz = 512;

class NimScorerTest : public ::testing::TestWithParam<NimScorer> {};

TEST_P(NimScorerTest, ProducesValidSelection) {
  const HeteroGraph g = datasets::MakeDblp(3, /*scale=*/0.05);
  const auto roles = g.ClassifySchema();
  TypeId father = -1;
  for (TypeId t = 0; t < g.NumNodeTypes(); ++t) {
    if (roles[static_cast<size_t>(t)] == TypeRole::kFather) father = t;
  }
  ASSERT_GE(father, 0);
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 6;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  NimOptions opts;
  opts.scorer = GetParam();
  const auto sel = CondenseFatherType(g, father,
                                      FilterByEndType(paths, father),
                                      kMaxRowNnz, g.train_index(), 20, opts);
  EXPECT_EQ(sel.size(), 20u);
  std::set<int32_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (int32_t v : sel) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, g.NodeCount(father));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScorers, NimScorerTest,
    ::testing::Values(NimScorer::kPprPowerIteration, NimScorer::kPprPush,
                      NimScorer::kDegree, NimScorer::kCloseness,
                      NimScorer::kBetweenness, NimScorer::kHubs,
                      NimScorer::kAuthorities),
    [](const auto& info) {
      std::string n = NimScorerName(info.param);
      std::string out;
      for (char c : n) out += (c == '-' ? '_' : c);
      return out;
    });

TEST(NimScorerTest, PushApproximatesPowerIteration) {
  // The two PPR variants should mostly agree on which fathers matter.
  const HeteroGraph g = datasets::MakeDblp(5, /*scale=*/0.05);
  const TypeId father = g.TypeByName("paper").value();
  MetaPathOptions mp;
  mp.max_hops = 2;
  mp.max_paths = 6;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), mp);
  NimOptions a;
  a.scorer = NimScorer::kPprPowerIteration;
  NimOptions b;
  b.scorer = NimScorer::kPprPush;
  b.push_epsilon = 1e-6f;
  const auto sa = CondenseFatherType(g, father,
                                     FilterByEndType(paths, father),
                                     kMaxRowNnz, g.train_index(), 30, a);
  const auto sb = CondenseFatherType(g, father,
                                     FilterByEndType(paths, father),
                                     kMaxRowNnz, g.train_index(), 30, b);
  std::set<int32_t> inter;
  std::set<int32_t> sa_set(sa.begin(), sa.end());
  for (int32_t v : sb) {
    if (sa_set.count(v)) inter.insert(v);
  }
  // Note: sym-normalized power iteration vs row-normalized push differ in
  // weighting, so require substantial but not perfect overlap.
  EXPECT_GE(inter.size(), 15u);
}

TEST(WalkPruneTest, KeepsHighInfluenceNodes) {
  // Node 0 reaches 4 columns; nodes 1..4 reach one each. Pruning half the
  // pool must keep node 0.
  std::vector<CooEntry> e;
  for (int32_t c = 0; c < 4; ++c) e.push_back({0, c, 1.0f});
  for (int32_t v = 1; v < 5; ++v) e.push_back({v, v - 1, 1.0f});
  auto adj = CsrMatrix::FromCoo(5, 4, std::move(e));
  ASSERT_TRUE(adj.ok());
  const auto kept = PruneUninfluentialByWalks(*adj, {0, 1, 2, 3, 4}, 0.5,
                                              /*walks=*/8, /*length=*/2, 1);
  EXPECT_LE(kept.size(), 3u);
  EXPECT_TRUE(std::count(kept.begin(), kept.end(), 0) > 0);
}

TEST(WalkPruneTest, ZeroFractionIsIdentity) {
  auto adj = CsrMatrix::FromCoo(3, 3, {{0, 0, 1.0f}});
  ASSERT_TRUE(adj.ok());
  const std::vector<int32_t> pool = {0, 1, 2};
  EXPECT_EQ(PruneUninfluentialByWalks(*adj, pool, 0.0, 4, 2, 1), pool);
}

TEST(WalkPruneTest, EndToEndSelectionStillValid) {
  const HeteroGraph g = datasets::MakeAcm(7, /*scale=*/0.1);
  FreeHgcOptions opts;
  opts.ratio = 0.05;
  opts.max_paths = 8;
  opts.target.walk_prune_fraction = 0.5;
  auto res = Condense(g, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->graph.Validate().ok());
  EXPECT_GT(res->selected_target.size(), 0u);
}

}  // namespace
}  // namespace freehgc::core
