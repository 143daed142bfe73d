#include <gtest/gtest.h>

#include "metapath/metapath.h"
#include "sparse/ops.h"

namespace freehgc {
namespace {

CsrMatrix Adj(int32_t rows, int32_t cols, std::vector<CooEntry> e) {
  auto r = CsrMatrix::FromCoo(rows, cols, std::move(e));
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

/// Paper-Author-Subject toy schema (with reverses).
HeteroGraph BuildPas() {
  HeteroGraph g;
  const TypeId p = g.AddNodeType("p", 3).value();
  const TypeId a = g.AddNodeType("a", 2).value();
  const TypeId s = g.AddNodeType("s", 2).value();
  EXPECT_TRUE(g.AddRelation("pa", p, a,
                            Adj(3, 2, {{0, 0, 1}, {1, 0, 1}, {2, 1, 1}}))
                  .ok());
  EXPECT_TRUE(
      g.AddRelation("ps", p, s, Adj(3, 2, {{0, 0, 1}, {1, 1, 1}, {2, 1, 1}}))
          .ok());
  g.EnsureReverseRelations();
  EXPECT_TRUE(g.SetTarget(p, {0, 1, 0}, 2).ok());
  return g;
}

TEST(MetaPathTest, EnumerationCountsAndNames) {
  HeteroGraph g = BuildPas();
  MetaPathOptions opts;
  opts.max_hops = 1;
  auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  // From p, 1 hop: pa, ps -> 2 paths.
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].Name(g), "p-a");
  EXPECT_EQ(paths[0].hops(), 1);
  EXPECT_EQ(paths[0].start_type(), g.target_type());

  opts.max_hops = 2;
  paths = EnumerateMetaPaths(g, g.target_type(), opts);
  // 1-hop: pa, ps. 2-hop: pa->rev_pa (a->p), ps->rev_ps (s->p): p-a-p and
  // p-s-p.
  ASSERT_EQ(paths.size(), 4u);
}

TEST(MetaPathTest, MaxPathsCapRespected) {
  HeteroGraph g = BuildPas();
  MetaPathOptions opts;
  opts.max_hops = 4;
  opts.max_paths = 3;
  EXPECT_EQ(EnumerateMetaPaths(g, g.target_type(), opts).size(), 3u);
}

TEST(MetaPathTest, FilterByEndType) {
  HeteroGraph g = BuildPas();
  MetaPathOptions opts;
  opts.max_hops = 2;
  auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  const TypeId a = g.TypeByName("a").value();
  for (const auto& p : FilterByEndType(paths, a)) {
    EXPECT_EQ(p.end_type(), a);
  }
  EXPECT_EQ(FilterByEndType(paths, a).size(), 1u);
}

TEST(MetaPathTest, ComposeMatchesManualProduct) {
  HeteroGraph g = BuildPas();
  MetaPathOptions opts;
  opts.max_hops = 2;
  auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  // Find the p-a-p path.
  const MetaPath* pap = nullptr;
  for (const auto& p : paths) {
    if (p.Name(g) == "p-a-p") pap = &p;
  }
  ASSERT_NE(pap, nullptr);
  CsrMatrix composed = ComposeAdjacency(g, *pap);
  // papers 0 and 1 share author 0 -> they reach each other (and
  // themselves); paper 2 only itself.
  EXPECT_TRUE(composed.Contains(0, 1));
  EXPECT_TRUE(composed.Contains(1, 0));
  EXPECT_TRUE(composed.Contains(0, 0));
  EXPECT_FALSE(composed.Contains(0, 2));
  EXPECT_FALSE(composed.Contains(2, 0));
  // Row-stochastic: rows sum to 1.
  for (int32_t r = 0; r < composed.rows(); ++r) {
    EXPECT_NEAR(composed.RowSum(r), 1.0f, 1e-5f);
  }
}

TEST(JaccardTest, SortedSetBasics) {
  std::vector<int32_t> a = {1, 2, 3};
  std::vector<int32_t> b = {2, 3, 4};
  std::vector<int32_t> empty;
  EXPECT_FLOAT_EQ(JaccardOfSortedSets(a, b), 0.5f);
  EXPECT_FLOAT_EQ(JaccardOfSortedSets(a, a), 1.0f);
  // Paper convention: two empty sets are fully similar.
  EXPECT_FLOAT_EQ(JaccardOfSortedSets(empty, empty), 1.0f);
  EXPECT_FLOAT_EQ(JaccardOfSortedSets(a, empty), 0.0f);
}

TEST(JaccardTest, PerNodeAveragesPairs) {
  // Two 2x3 "paths": node 0 has identical reach sets (J=1); node 1 has
  // disjoint ones (J=0).
  CsrMatrix p1 = Adj(2, 3, {{0, 0, 1}, {0, 1, 1}, {1, 0, 1}});
  CsrMatrix p2 = Adj(2, 3, {{0, 0, 1}, {0, 1, 1}, {1, 2, 1}});
  // With two paths, each path's mean over the other path is the pair's J.
  const auto pp = PerPathJaccard({&p1, &p2});
  for (const auto& j : pp) {
    EXPECT_FLOAT_EQ(j[0], 1.0f);
    EXPECT_FLOAT_EQ(j[1], 0.0f);
  }
}

TEST(JaccardTest, SinglePathYieldsZero) {
  CsrMatrix p1 = Adj(2, 2, {{0, 0, 1}});
  const auto pp = PerPathJaccard({&p1});
  EXPECT_EQ(pp[0], (std::vector<float>{0.0f, 0.0f}));
}

TEST(JaccardTest, PerPathSymmetricForTwoPaths) {
  CsrMatrix p1 = Adj(1, 4, {{0, 0, 1}, {0, 1, 1}});
  CsrMatrix p2 = Adj(1, 4, {{0, 1, 1}, {0, 2, 1}});
  const auto pp = PerPathJaccard({&p1, &p2});
  // J({0,1},{1,2}) = 1/3; with two paths each path's mean equals that.
  EXPECT_NEAR(pp[0][0], 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(pp[1][0], 1.0f / 3.0f, 1e-6f);
}

TEST(JaccardTest, PerPathThreePaths) {
  // Three paths for one node: sets {0},{0},{1}.
  CsrMatrix p1 = Adj(1, 2, {{0, 0, 1}});
  CsrMatrix p2 = Adj(1, 2, {{0, 0, 1}});
  CsrMatrix p3 = Adj(1, 2, {{0, 1, 1}});
  const auto pp = PerPathJaccard({&p1, &p2, &p3});
  // Path 1 vs {p2: 1, p3: 0} -> mean 0.5. Path 3 vs {0, 0} -> 0.
  EXPECT_NEAR(pp[0][0], 0.5f, 1e-6f);
  EXPECT_NEAR(pp[1][0], 0.5f, 1e-6f);
  EXPECT_NEAR(pp[2][0], 0.0f, 1e-6f);
}

}  // namespace
}  // namespace freehgc
