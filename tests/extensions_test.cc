// Tests for the paper's extension point: alternative NIM scorers
// (Section IV-C's "NIM can be replaced by ...").
#include <gtest/gtest.h>

#include <set>

#include "core/other_types.h"
#include "datasets/generator.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"

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
  pipeline::ArtifactCache cache;
  const auto sel = CondenseFatherType(g, father,
                                      FilterByEndType(paths, father),
                                      kMaxRowNnz, g.train_index(), 20, opts,
                                      cache);
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
  pipeline::ArtifactCache cache;
  const auto sa = CondenseFatherType(g, father,
                                     FilterByEndType(paths, father),
                                     kMaxRowNnz, g.train_index(), 30, a,
                                     cache);
  const auto sb = CondenseFatherType(g, father,
                                     FilterByEndType(paths, father),
                                     kMaxRowNnz, g.train_index(), 30, b,
                                     cache);
  std::set<int32_t> inter;
  std::set<int32_t> sa_set(sa.begin(), sa.end());
  for (int32_t v : sb) {
    if (sa_set.count(v)) inter.insert(v);
  }
  // Note: sym-normalized power iteration vs row-normalized push differ in
  // weighting, so require substantial but not perfect overlap.
  EXPECT_GE(inter.size(), 15u);
}

}  // namespace
}  // namespace freehgc::core
