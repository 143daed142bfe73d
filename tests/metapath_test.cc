#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "datasets/generator.h"
#include "exec/exec_context.h"
#include "metapath/metapath.h"
#include "pipeline/artifact_cache.h"
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

/// Byte-compares row r of `got` and `want`.
bool RowBytesEqual(const CsrMatrix& got, const CsrMatrix& want, int32_t r) {
  const auto gi = got.RowIndices(r), wi = want.RowIndices(r);
  const auto gv = got.RowValues(r), wv = want.RowValues(r);
  return gi.size() == wi.size() &&
         std::equal(gi.begin(), gi.end(), wi.begin()) &&
         std::memcmp(gv.data(), wv.data(), gv.size() * sizeof(float)) == 0;
}

TEST(MetaPathTest, RowRestrictedComposeKeepsExactlyTheRequestedRows) {
  // Every kept row is byte-identical to the full product's row, at every
  // thread count and row budget; every other row is empty.
  const HeteroGraph g = datasets::MakeDblp(3, 0.3);
  MetaPathOptions opts;
  opts.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  bool one_hop = false, two_hop = false;
  for (const auto& p : paths) {
    one_hop |= p.hops() == 1;
    two_hop |= p.hops() == 2;
  }
  ASSERT_TRUE(one_hop && two_hop);
  const int32_t n = g.NodeCount(g.target_type());

  // The train pool reversed (unsorted) with a duplicate, no rows, every
  // row, and a scattered handful.
  std::vector<int32_t> unsorted(g.train_index().rbegin(),
                                g.train_index().rend());
  unsorted.push_back(unsorted.front());
  std::vector<int32_t> all(static_cast<size_t>(n));
  for (int32_t r = 0; r < n; ++r) all[static_cast<size_t>(r)] = r;
  const std::vector<std::vector<int32_t>> row_sets = {
      unsorted, {}, all, {n - 1, 0, n / 2, 7}};

  exec::ExecContext ex1(1);
  for (int64_t budget : {0, 4, 512}) {
    for (const auto& p : paths) {
      const CsrMatrix full = ComposeAdjacency(g, p, budget, &ex1);
      for (int threads : {1, 3, 4}) {
        exec::ExecContext ex(threads);
        for (const auto& rows : row_sets) {
          const std::set<int32_t> kept(rows.begin(), rows.end());
          const CsrMatrix got = ComposeAdjacency(g, p, budget, &ex, &rows);
          ASSERT_TRUE(got.Validate().ok());
          ASSERT_EQ(got.rows(), full.rows());
          ASSERT_EQ(got.cols(), full.cols());
          for (int32_t r = 0; r < n; ++r) {
            if (kept.count(r) != 0) {
              EXPECT_TRUE(RowBytesEqual(got, full, r))
                  << p.Name(g) << " budget " << budget << " threads "
                  << threads << " row " << r;
            } else {
              EXPECT_EQ(got.RowNnz(r), 0) << p.Name(g) << " row " << r;
            }
          }
          if (rows.size() == all.size()) {
            EXPECT_TRUE(got == full);
          }
        }
      }
    }
  }
}

TEST(MetaPathTest, CachedCompositionHonorsTheRowSet) {
  // ArtifactCache::Composed keeps one entry per row set, and each is the
  // direct composition over those rows.
  const HeteroGraph g = datasets::MakeDblp(3, 0.3);
  MetaPathOptions opts;
  opts.max_hops = 2;
  const auto paths = EnumerateMetaPaths(g, g.target_type(), opts);
  ASSERT_FALSE(paths.empty());
  const MetaPath& p = paths.back();
  pipeline::ArtifactCache cache;
  EXPECT_TRUE(*cache.Composed(g, p, 512, nullptr, RowSet::kAll) ==
              ComposeAdjacency(g, p, 512));
  EXPECT_TRUE(*cache.Composed(g, p, 512, nullptr, RowSet::kTrain) ==
              ComposeAdjacency(g, p, 512, nullptr, &g.train_index()));
  EXPECT_EQ(cache.stats().misses, 2);
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
