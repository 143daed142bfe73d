#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sparse/reference.h"

namespace freehgc {
namespace {

CsrMatrix FromCooOrDie(int32_t rows, int32_t cols,
                       std::vector<CooEntry> entries) {
  auto r = CsrMatrix::FromCoo(rows, cols, std::move(entries));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Random sparse matrix with ~density fraction of entries set.
CsrMatrix RandomSparse(int32_t rows, int32_t cols, double density,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < density) {
        entries.push_back({r, c, rng.NextUniform(0.1f, 2.0f)});
      }
    }
  }
  return FromCooOrDie(rows, cols, std::move(entries));
}

Matrix ToDense(const CsrMatrix& a) {
  Matrix m(a.rows(), a.cols());
  for (int32_t r = 0; r < a.rows(); ++r) {
    auto idx = a.RowIndices(r);
    auto val = a.RowValues(r);
    for (size_t k = 0; k < idx.size(); ++k) m.At(r, idx[k]) = val[k];
  }
  return m;
}

TEST(CsrTest, FromCooSortsAndSumsDuplicates) {
  CsrMatrix m = FromCooOrDie(2, 3, {{1, 2, 1.0f},
                                    {0, 1, 2.0f},
                                    {1, 2, 3.0f},
                                    {0, 0, 1.0f}});
  EXPECT_EQ(m.nnz(), 3);
  auto idx0 = m.RowIndices(0);
  ASSERT_EQ(idx0.size(), 2u);
  EXPECT_EQ(idx0[0], 0);
  EXPECT_EQ(idx0[1], 1);
  EXPECT_FLOAT_EQ(m.RowValues(1)[0], 4.0f);  // 1 + 3 summed
}

TEST(CsrTest, FromCooRejectsOutOfRange) {
  EXPECT_FALSE(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.0f}}).ok());
  EXPECT_FALSE(CsrMatrix::FromCoo(2, 2, {{0, -1, 1.0f}}).ok());
  EXPECT_FALSE(CsrMatrix::FromCoo(-1, 2, {}).ok());
}

TEST(CsrTest, FromPartsValidates) {
  EXPECT_TRUE(CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 1}, {1, 1}).ok());
  // wrong indptr size
  EXPECT_FALSE(CsrMatrix::FromParts(2, 2, {0, 2}, {0, 1}, {1, 1}).ok());
  // decreasing indptr
  EXPECT_FALSE(CsrMatrix::FromParts(2, 2, {0, 2, 1}, {0, 1}, {1, 1}).ok());
  // column out of range
  EXPECT_FALSE(CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 5}, {1, 1}).ok());
  // indices/values mismatch
  EXPECT_FALSE(CsrMatrix::FromParts(2, 2, {0, 1, 2}, {0, 1}, {1}).ok());
}

TEST(CsrTest, ValidateAcceptsWellFormedMatrices) {
  EXPECT_TRUE(CsrMatrix().Validate().ok());
  EXPECT_TRUE(CsrMatrix(3, 5).Validate().ok());
  EXPECT_TRUE(RandomSparse(20, 30, 0.2, 41).Validate().ok());
}

TEST(CsrTest, ValidateRejectsCorruptedStructure) {
  // FromParts checks only the cheap structural subset, so these
  // corruptions slip past construction; Validate must reject them.
  // Unsorted columns within a row:
  auto unsorted = CsrMatrix::FromParts(1, 3, {0, 2}, {2, 0}, {1.0f, 1.0f});
  ASSERT_TRUE(unsorted.ok());
  EXPECT_FALSE(unsorted->Validate().ok());
  // Duplicate column within a row:
  auto dup = CsrMatrix::FromParts(1, 3, {0, 2}, {1, 1}, {1.0f, 1.0f});
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(dup->Validate().ok());
}

TEST(CsrTest, ValidateRejectsNonFiniteValues) {
  CsrMatrix m = FromCooOrDie(2, 2, {{0, 0, 1.0f}, {1, 1, 2.0f}});
  ASSERT_TRUE(m.Validate().ok());
  m.mutable_values()[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(m.Validate().ok());
  m.mutable_values()[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(m.Validate().ok());
  m.mutable_values()[0] = 1.0f;
  EXPECT_TRUE(m.Validate().ok());
}

TEST(CsrTest, BasicAccessors) {
  CsrMatrix m = FromCooOrDie(3, 4, {{0, 1, 2.0f}, {0, 3, 3.0f}, {2, 0, 1.0f}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 0);
  EXPECT_FLOAT_EQ(m.RowSum(0), 5.0f);
  EXPECT_TRUE(m.Contains(0, 3));
  EXPECT_FALSE(m.Contains(1, 0));
  EXPECT_FALSE(m.Contains(-1, 0));
  EXPECT_EQ(m.RowDegrees(), (std::vector<int64_t>{2, 0, 1}));
  EXPECT_GT(m.MemoryBytes(), 0u);
}

TEST(SparseOpsTest, TransposeRoundTrip) {
  CsrMatrix a = RandomSparse(7, 5, 0.3, 1);
  CsrMatrix att = sparse::Transpose(sparse::Transpose(a));
  EXPECT_EQ(a, att);
  CsrMatrix at = sparse::Transpose(a);
  EXPECT_EQ(at.rows(), 5);
  EXPECT_EQ(at.cols(), 7);
  for (int32_t r = 0; r < a.rows(); ++r) {
    auto idx = a.RowIndices(r);
    for (int32_t c : idx) EXPECT_TRUE(at.Contains(c, r));
  }
}

TEST(SparseOpsTest, RowNormalizeSumsToOne) {
  CsrMatrix a = RandomSparse(10, 10, 0.4, 2);
  CsrMatrix n = sparse::RowNormalize(a);
  for (int32_t r = 0; r < n.rows(); ++r) {
    if (a.RowNnz(r) > 0) {
      EXPECT_NEAR(n.RowSum(r), 1.0f, 1e-5f);
    }
  }
}

TEST(SparseOpsTest, SymNormalizeMatchesDenseFormula) {
  CsrMatrix a =
      FromCooOrDie(3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f},
                          {2, 1, 1.0f}});
  CsrMatrix n = sparse::SymNormalize(a);
  // degrees: 1, 2, 1 -> entry (0,1) = 1/sqrt(1*2)
  const float expect = 1.0f / std::sqrt(2.0f);
  EXPECT_NEAR(n.RowValues(0)[0], expect, 1e-6f);
  EXPECT_NEAR(n.RowValues(2)[0], expect, 1e-6f);
}

TEST(SparseOpsTest, SpGemmMatchesDenseReference) {
  CsrMatrix a = RandomSparse(8, 6, 0.35, 3);
  CsrMatrix b = RandomSparse(6, 9, 0.35, 4);
  Matrix ref = dense::MatMul(ToDense(a), ToDense(b));
  Matrix got = ToDense(sparse::SpGemm(a, b));
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  for (int64_t i = 0; i < ref.rows(); ++i) {
    for (int64_t j = 0; j < ref.cols(); ++j) {
      EXPECT_NEAR(got.At(i, j), ref.At(i, j), 1e-4f);
    }
  }
}

TEST(SparseOpsTest, SpGemmRowBudgetKeepsLargest) {
  CsrMatrix a = FromCooOrDie(1, 3, {{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 2, 1.0f}});
  CsrMatrix b = FromCooOrDie(
      3, 3, {{0, 0, 5.0f}, {1, 1, 1.0f}, {2, 2, 3.0f}});
  CsrMatrix c = sparse::SpGemm(a, b, /*max_row_nnz=*/2);
  EXPECT_EQ(c.RowNnz(0), 2);
  EXPECT_TRUE(c.Contains(0, 0));  // value 5 kept
  EXPECT_TRUE(c.Contains(0, 2));  // value 3 kept
  EXPECT_FALSE(c.Contains(0, 1));  // value 1 dropped
}

TEST(SparseOpsTest, SpMmDenseMatchesDense) {
  CsrMatrix a = RandomSparse(5, 7, 0.4, 5);
  Rng rng(6);
  Matrix x(7, 3);
  x.FillGaussian(rng, 1.0f);
  Matrix ref = dense::MatMul(ToDense(a), x);
  Matrix got = sparse::SpMmDense(a, x);
  for (int64_t i = 0; i < ref.rows(); ++i) {
    for (int64_t j = 0; j < ref.cols(); ++j) {
      EXPECT_NEAR(got.At(i, j), ref.At(i, j), 1e-4f);
    }
  }
}

TEST(SparseOpsTest, SpMv) {
  CsrMatrix a = FromCooOrDie(2, 3, {{0, 0, 1.0f}, {0, 2, 2.0f}, {1, 1, 3.0f}});
  const auto y = sparse::SpMv(a, {1.0f, 1.0f, 1.0f});
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(SparseOpsTest, SubmatrixRemapsIndices) {
  CsrMatrix a = FromCooOrDie(
      4, 4, {{0, 0, 1.0f}, {1, 2, 2.0f}, {2, 3, 3.0f}, {3, 1, 4.0f}});
  CsrMatrix sub = sparse::Submatrix(a, {1, 2}, {2, 3});
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.cols(), 2);
  EXPECT_FLOAT_EQ(sub.RowValues(0)[0], 2.0f);  // (1,2) -> (0,0)
  EXPECT_TRUE(sub.Contains(0, 0));
  EXPECT_TRUE(sub.Contains(1, 1));  // (2,3) -> (1,1)
  EXPECT_EQ(sub.nnz(), 2);
}

TEST(PprTest, ConservesProbabilityMass) {
  // Symmetric normalized chain graph is substochastic; use a row-stochastic
  // matrix to check mass conservation. The reference iterates A^T pi on
  // any matrix (PprScores takes only bipartite blocks and returns half).
  CsrMatrix a = FromCooOrDie(
      3, 3,
      {{0, 1, 1.0f}, {1, 0, 0.5f}, {1, 2, 0.5f}, {2, 1, 1.0f}});
  std::vector<float> teleport = {1.0f, 0.0f, 0.0f};
  const auto pi =
      sparse::reference::PprScoresRef(a, teleport, 0.15f, 100, 1e-9f);
  float sum = 0.0f;
  for (float x : pi) sum += x;
  EXPECT_NEAR(sum, 1.0f, 1e-3f);
  for (float x : pi) EXPECT_GE(x, 0.0f);
}

TEST(PprTest, TeleportNodeGetsHighestScore) {
  // Star graph: teleporting at the center keeps the center dominant.
  CsrMatrix a = FromCooOrDie(4, 4, {{0, 1, 1.0f}, {1, 0, 1.0f},
                                    {0, 2, 1.0f}, {2, 0, 1.0f},
                                    {0, 3, 1.0f}, {3, 0, 1.0f}});
  CsrMatrix n = sparse::RowNormalize(a);
  std::vector<float> teleport = {1.0f, 0.0f, 0.0f, 0.0f};
  const auto pi =
      sparse::reference::PprScoresRef(n, teleport, 0.2f, 100, 1e-6f);
  EXPECT_GT(pi[0], pi[1]);
  EXPECT_GT(pi[0], pi[2]);
  EXPECT_NEAR(pi[1], pi[2], 1e-4f);  // symmetric leaves
}

TEST(PprTest, HigherAlphaStaysCloserToTeleport) {
  CsrMatrix a = FromCooOrDie(3, 3, {{0, 1, 1.0f}, {1, 2, 1.0f},
                                    {2, 0, 1.0f}});
  CsrMatrix n = sparse::RowNormalize(a);
  std::vector<float> teleport = {1.0f, 0.0f, 0.0f};
  const auto lo =
      sparse::reference::PprScoresRef(n, teleport, 0.1f, 200, 1e-6f);
  const auto hi =
      sparse::reference::PprScoresRef(n, teleport, 0.9f, 200, 1e-6f);
  EXPECT_GT(hi[0], lo[0]);
}

}  // namespace
}  // namespace freehgc
