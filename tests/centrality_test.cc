#include <gtest/gtest.h>

#include <algorithm>

#include "sparse/centrality.h"
#include "sparse/ops.h"
#include "sparse/reference.h"

namespace freehgc::sparse {
namespace {

CsrMatrix Adj(int32_t n, std::vector<CooEntry> e) {
  auto r = CsrMatrix::FromCoo(n, n, std::move(e));
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

/// Undirected star: node 0 at the center of nodes 1..4.
CsrMatrix Star() {
  std::vector<CooEntry> e;
  for (int32_t i = 1; i <= 4; ++i) {
    e.push_back({0, i, 1.0f});
    e.push_back({i, 0, 1.0f});
  }
  return Adj(5, std::move(e));
}

/// Undirected path 0-1-2-3-4.
CsrMatrix Path() {
  std::vector<CooEntry> e;
  for (int32_t i = 0; i < 4; ++i) {
    e.push_back({i, i + 1, 1.0f});
    e.push_back({i + 1, i, 1.0f});
  }
  return Adj(5, std::move(e));
}

TEST(PprPushTest, MatchesPowerIterationOnSmallGraph) {
  const CsrMatrix a = sparse::RowNormalize(Path());
  std::vector<float> dense_teleport = {1.0f, 0, 0, 0, 0};
  const auto exact =
      reference::PprScoresRef(a, dense_teleport, 0.2f, 200, 1e-8f);
  const auto push = PprPush(a, {{0, 1.0f}}, 0.2f, /*epsilon=*/1e-7f);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(push[i], exact[i], 5e-3f) << "node " << i;
  }
}

TEST(PprPushTest, LargerEpsilonIsSparserButOrdered) {
  const CsrMatrix a = sparse::RowNormalize(Star());
  const auto p = PprPush(a, {{0, 1.0f}}, 0.15f, 1e-3f);
  // Center keeps the most mass.
  for (size_t i = 1; i < p.size(); ++i) EXPECT_GT(p[0], p[i]);
  // Symmetric leaves get equal mass.
  EXPECT_NEAR(p[1], p[4], 1e-6f);
}

TEST(PprPushTest, EmptyTeleportYieldsZero) {
  const CsrMatrix a = sparse::RowNormalize(Star());
  const auto p = PprPush(a, {}, 0.15f);
  for (float x : p) EXPECT_EQ(x, 0.0f);
}

TEST(CentralityTest, DegreeOnStar) {
  const auto c = Centrality(Star(), CentralityKind::kDegree);
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
}

TEST(CentralityTest, ClosenessPrefersCenter) {
  CentralityOptions opts;
  opts.num_samples = 5;  // all sources: exact
  const auto c = Centrality(Star(), CentralityKind::kCloseness, opts);
  for (size_t i = 1; i < c.size(); ++i) EXPECT_GT(c[0], c[i]);
  // Path graph: middle node most central.
  const auto p = Centrality(Path(), CentralityKind::kCloseness, opts);
  EXPECT_GT(p[2], p[0]);
  EXPECT_GT(p[2], p[4]);
}

TEST(CentralityTest, BetweennessPeaksAtBridge) {
  CentralityOptions opts;
  opts.num_samples = 5;
  const auto b = Centrality(Path(), CentralityKind::kBetweenness, opts);
  // Middle of the path carries the most shortest paths; endpoints none.
  EXPECT_GT(b[2], b[1]);
  EXPECT_GT(b[2], b[3]);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[4], 0.0);
}

TEST(CentralityTest, HitsHubAndAuthority) {
  // Directed bipartite-ish: 0 and 1 point to 2 and 3. Hubs: 0,1;
  // authorities: 2,3.
  CsrMatrix a = Adj(4, {{0, 2, 1.0f}, {0, 3, 1.0f}, {1, 2, 1.0f},
                        {1, 3, 1.0f}});
  const auto hubs = Centrality(a, CentralityKind::kHubs);
  const auto auth = Centrality(a, CentralityKind::kAuthorities);
  EXPECT_GT(hubs[0], hubs[2]);
  EXPECT_GT(hubs[1], hubs[3]);
  EXPECT_GT(auth[2], auth[0]);
  EXPECT_GT(auth[3], auth[1]);
}

TEST(CentralityTest, AllKindsNamed) {
  for (auto kind :
       {CentralityKind::kDegree, CentralityKind::kCloseness,
        CentralityKind::kBetweenness, CentralityKind::kHubs,
        CentralityKind::kAuthorities}) {
    EXPECT_STRNE(CentralityKindName(kind), "?");
  }
}

TEST(CentralityTest, DeterministicUnderSeed) {
  CentralityOptions opts;
  opts.num_samples = 3;
  opts.seed = 42;
  const CsrMatrix a = Star();
  EXPECT_EQ(Centrality(a, CentralityKind::kBetweenness, opts),
            Centrality(a, CentralityKind::kBetweenness, opts));
}

}  // namespace
}  // namespace freehgc::sparse
