#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dense/matrix.h"

namespace freehgc {
namespace {

Matrix Make(std::initializer_list<std::initializer_list<float>> rows) {
  const int64_t r = static_cast<int64_t>(rows.size());
  const int64_t c = static_cast<int64_t>(rows.begin()->size());
  Matrix m(r, c);
  int64_t i = 0;
  for (const auto& row : rows) {
    int64_t j = 0;
    for (float v : row) m.At(i, j++) = v;
    ++i;
  }
  return m;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.At(1, 2), 0.0f);
  m.At(1, 2) = 5.0f;
  EXPECT_EQ(m.At(1, 2), 5.0f);
  EXPECT_TRUE(Matrix().empty());
}

TEST(MatrixTest, FillAndEquality) {
  Matrix a(2, 2), b(2, 2);
  a.Fill(3.0f);
  b.Fill(3.0f);
  EXPECT_EQ(a, b);
  b.At(0, 0) = 1.0f;
  EXPECT_FALSE(a == b);
}

TEST(MatrixTest, GatherRows) {
  Matrix m = Make({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 1), 2.0f);
  EXPECT_EQ(g.At(2, 0), 5.0f);
}

TEST(MatrixTest, ConcatCols) {
  Matrix a = Make({{1, 2}, {3, 4}});
  Matrix b = Make({{5}, {6}});
  Matrix c = a.ConcatCols(b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_EQ(c.At(0, 2), 5.0f);
  EXPECT_EQ(c.At(1, 0), 3.0f);
}

TEST(MatrixTest, RandomFills) {
  Rng rng(5);
  Matrix m(50, 50);
  m.FillUniform(rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -1.0f);
    EXPECT_LT(m.data()[i], 1.0f);
  }
  Matrix g(100, 100);
  g.FillGaussian(rng, 2.0f);
  double sq = 0.0;
  for (int64_t i = 0; i < g.size(); ++i) sq += double(g.data()[i]) * g.data()[i];
  EXPECT_NEAR(std::sqrt(sq / g.size()), 2.0, 0.1);
}

TEST(MatMulTest, HandComputed) {
  Matrix a = Make({{1, 2}, {3, 4}});
  Matrix b = Make({{5, 6}, {7, 8}});
  Matrix c = dense::MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Rng rng(7);
  Matrix a(4, 6), b(6, 3);
  a.FillGaussian(rng, 1.0f);
  b.FillGaussian(rng, 1.0f);
  const Matrix ab = dense::MatMul(a, b);

  // a^T stored explicitly, then MatMulTA should reproduce ab.
  Matrix at(6, 4);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) at.At(j, i) = a.At(i, j);
  }
  const Matrix ab2 = dense::MatMulTA(at, b);
  // b^T stored explicitly, then MatMulTB should reproduce ab.
  Matrix bt(3, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 3; ++j) bt.At(j, i) = b.At(i, j);
  }
  const Matrix ab3 = dense::MatMulTB(a, bt);

  for (int64_t i = 0; i < ab.rows(); ++i) {
    for (int64_t j = 0; j < ab.cols(); ++j) {
      EXPECT_NEAR(ab.At(i, j), ab2.At(i, j), 1e-4f);
      EXPECT_NEAR(ab.At(i, j), ab3.At(i, j), 1e-4f);
    }
  }
}

TEST(DenseOpsTest, AddAxpyScale) {
  Matrix a = Make({{1, 2}});
  Matrix b = Make({{10, 20}});
  EXPECT_EQ(dense::Add(a, b).At(0, 1), 22.0f);
  EXPECT_EQ(dense::Scale(a, 3.0f).At(0, 0), 3.0f);
  dense::Axpy(0.5f, b, a);
  EXPECT_EQ(a.At(0, 0), 6.0f);
}

TEST(DenseOpsTest, SoftmaxRowsSumToOne) {
  Matrix a = Make({{1, 2, 3}, {-5, 0, 5}});
  dense::SoftmaxRows(a);
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_GT(a.At(r, c), 0.0f);
      sum += a.At(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(a.At(0, 2), a.At(0, 0));
}

TEST(DenseOpsTest, SoftmaxNumericallyStableForLargeLogits) {
  Matrix a = Make({{1000.0f, 1001.0f}});
  dense::SoftmaxRows(a);
  EXPECT_FALSE(std::isnan(a.At(0, 0)));
  EXPECT_NEAR(a.At(0, 0) + a.At(0, 1), 1.0f, 1e-5f);
}

TEST(DenseOpsTest, ColumnMean) {
  Matrix a = Make({{1, 10}, {3, 30}, {5, 50}});
  const auto all = dense::ColumnMean(a, {});
  EXPECT_FLOAT_EQ(all[0], 3.0f);
  EXPECT_FLOAT_EQ(all[1], 30.0f);
  const auto some = dense::ColumnMean(a, {0, 2});
  EXPECT_FLOAT_EQ(some[0], 3.0f);
  EXPECT_FLOAT_EQ(some[1], 30.0f);
}

TEST(DenseOpsTest, NormsAndDistances) {
  Matrix a = Make({{3, 4}});
  EXPECT_FLOAT_EQ(dense::FrobeniusNorm(a), 5.0f);
  Matrix b = Make({{0, 0}});
  EXPECT_FLOAT_EQ(dense::RowSquaredDistance(a, 0, b, 0), 25.0f);
  EXPECT_FLOAT_EQ(dense::Dot(a, a), 25.0f);
}

}  // namespace
}  // namespace freehgc
