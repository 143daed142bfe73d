// Differential test harness for the dense products: MatMul, MatMulTA and
// MatMulTB (dense/matrix.h) are compared byte-for-byte (memcmp, so the
// sign of zero and NaN payloads count) against the scalar loops in
// dense/reference.h, with a null context and with 1, 2, 3 and 4
// threads. The corpus covers empty and unit dimensions, widths past
// every column tile, row counts at and across chunk boundaries, signed
// zeros, non-finite values behind skipped zeros, and a mapped operand.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mapped_file.h"
#include "common/rng.h"
#include "dense/matrix.h"
#include "dense/reference.h"
#include "exec/exec_context.h"

namespace freehgc {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 4};

/// Entries in [-2, 2); a `zeros` share of them are +0.0f or -0.0f.
Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed,
                    double zeros = 0.25) {
  Rng rng(seed);
  Matrix m(rows, cols);
  float* p = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    const double u = rng.NextDouble();
    float v = rng.NextUniform(-2.0f, 2.0f);
    if (u < zeros) {
      v = u < zeros / 2 ? 0.0f : -0.0f;
    } else if (v == 0.0f) {
      v = 1.0f;  // zeros only where asked for
    }
    p[i] = v;
  }
  return m;
}

::testing::AssertionResult SameBytes(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " != "
           << want.rows() << "x" << want.cols();
  }
  if (got.size() == 0) return ::testing::AssertionSuccess();
  if (std::memcmp(got.data(), want.data(),
                  static_cast<size_t>(got.size()) * sizeof(float)) != 0) {
    for (int64_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first difference at flat index " << i << ": "
               << got.data()[i] << " vs " << want.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// The transpose of m (plain copy loop; exact).
Matrix Transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) t.At(c, r) = m.At(r, c);
  }
  return t;
}

/// Runs every product on (a, b) — a (m, k), b (k, n) — with a null
/// context and each thread count, against the references.
void ExpectProductsMatch(const Matrix& a, const Matrix& b,
                         const std::string& what) {
  const Matrix at = Transposed(a);  // (k, m) for MatMulTA
  const Matrix bt = Transposed(b);  // (n, k) for MatMulTB
  const Matrix want = dense::reference::MatMulRef(a, b);
  const Matrix want_ta = dense::reference::MatMulTARef(at, b);
  const Matrix want_tb = dense::reference::MatMulTBRef(a, bt);
  EXPECT_TRUE(SameBytes(dense::MatMul(a, b), want)) << what << " null ctx";
  EXPECT_TRUE(SameBytes(dense::MatMulTA(at, b), want_ta))
      << what << " null ctx";
  EXPECT_TRUE(SameBytes(dense::MatMulTB(a, bt), want_tb))
      << what << " null ctx";
  for (int threads : kThreadCounts) {
    exec::ExecContext ex(threads);
    EXPECT_TRUE(SameBytes(dense::MatMul(a, b, &ex), want))
        << what << " MatMul threads=" << threads;
    EXPECT_TRUE(SameBytes(dense::MatMulTA(at, b, &ex), want_ta))
        << what << " MatMulTA threads=" << threads;
    EXPECT_TRUE(SameBytes(dense::MatMulTB(a, bt, &ex), want_tb))
        << what << " MatMulTB threads=" << threads;
  }
}

TEST(DenseReferenceTest, EmptyAndUnitDimensions) {
  const int64_t dims[] = {0, 1, 2};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        ExpectProductsMatch(RandomMatrix(m, k, seed),
                            RandomMatrix(k, n, seed + 1),
                            "m=" + std::to_string(m) + " k=" +
                                std::to_string(k) + " n=" + std::to_string(n));
        seed += 2;
      }
    }
  }
}

TEST(DenseReferenceTest, WidthsPastEveryColumnTile) {
  // Column tiles are 8 and 4 wide with a scalar tail; row tiles are 4
  // high. Every remainder of both shows up here, once with zeros in `a`
  // and once without.
  uint64_t seed = 100;
  for (double zeros : {0.25, 0.0}) {
    for (int64_t n : {1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 33}) {
      for (int64_t m : {1, 2, 3, 4, 5, 6, 7, 9}) {
        ExpectProductsMatch(
            RandomMatrix(m, 6, seed, zeros), RandomMatrix(6, n, seed + 1),
            "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                " zeros=" + std::to_string(zeros));
        seed += 2;
      }
    }
  }
}

TEST(DenseReferenceTest, RowCountsAcrossChunkBoundaries) {
  // Row counts at, just past and across the chunk width the products
  // split at, for shapes of the HGNN trainer.
  uint64_t seed = 200;
  const std::pair<int64_t, int64_t> shapes[] = {{128, 32}, {64, 64}};
  for (const auto& [k, n] : shapes) {
    const int64_t grain = dense::ProductRowGrain(k, n);
    ASSERT_EQ(exec::ExecContext::ChunkSize(2 * grain + 3, grain), grain);
    for (int64_t m : {grain, grain + 1, 2 * grain + 3}) {
      ASSERT_GE(exec::ExecContext::NumChunks(m, grain), m == grain ? 1 : 2);
      ExpectProductsMatch(RandomMatrix(m, k, seed),
                          RandomMatrix(k, n, seed + 1),
                          "k=" + std::to_string(k) + " n=" +
                              std::to_string(n) + " m=" + std::to_string(m));
      seed += 2;
    }
  }
  // Small shapes run as one inline chunk.
  EXPECT_GE(dense::ProductRowGrain(128, 32), 108);
  ExpectProductsMatch(RandomMatrix(108, 128, 300), RandomMatrix(128, 32, 301),
                      "108x128x32");
}

TEST(DenseReferenceTest, SignedZerosStayBitExact) {
  // All-zero operands of either sign: every output must be +0.0f, exactly
  // as the references leave it.
  for (float za : {0.0f, -0.0f}) {
    for (float zb : {0.0f, -0.0f}) {
      Matrix a(9, 7), b(7, 13);
      a.Fill(za);
      b.Fill(zb);
      ExpectProductsMatch(a, b, "zeros");
    }
  }
  // Terms that cancel exactly.
  Matrix a(5, 2), b(2, 9);
  a.Fill(1.0f);
  for (int64_t j = 0; j < 9; ++j) {
    b.At(0, j) = 3.0f;
    b.At(1, j) = -3.0f;
  }
  ExpectProductsMatch(a, b, "cancellation");
  // Negative nonzero times signed zero.
  Matrix c = RandomMatrix(6, 5, 400);
  Matrix d(5, 10);
  d.Fill(-0.0f);
  ExpectProductsMatch(c, d, "negative zero b");
}

TEST(DenseReferenceTest, NonFiniteBehindSkippedZeros) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const int64_t m = 11, k = 6, n = 19;
  Matrix a = RandomMatrix(m, k, 500);
  Matrix b = RandomMatrix(k, n, 501);
  // Column 2 of a is all (signed) zeros; row 2 of b is non-finite.
  for (int64_t i = 0; i < m; ++i) a.At(i, 2) = (i % 2 == 0) ? 0.0f : -0.0f;
  for (int64_t j = 0; j < n; ++j) {
    b.At(2, j) = j % 3 == 0 ? kNan : j % 3 == 1 ? kInf : -kInf;
  }
  ExpectProductsMatch(a, b, "non-finite");

  // MatMul and MatMulTA skip the zero terms: the non-finite row never
  // reaches the output.
  const Matrix at = Transposed(a);
  for (const Matrix& out : {dense::MatMul(a, b), dense::MatMulTA(at, b)}) {
    for (int64_t i = 0; i < out.size(); ++i) {
      EXPECT_TRUE(std::isfinite(out.data()[i])) << "flat index " << i;
    }
  }
  // MatMulTB skips nothing: 0 * Inf and 0 * NaN make every output that
  // reads the non-finite entries NaN. Here b^T's row j is b's column j.
  const Matrix tb = dense::MatMulTB(a, Transposed(b));
  for (int64_t i = 0; i < tb.rows(); ++i) {
    for (int64_t j = 0; j < tb.cols(); ++j) {
      EXPECT_TRUE(std::isnan(tb.At(i, j))) << i << "," << j;
    }
  }
}

TEST(DenseReferenceTest, MappedOperandMatchesOwned) {
  // The same matrices once owned and once as FromView spans over an
  // mmap'd file (how mapped graphs hand features to the trainer).
  const Matrix a = RandomMatrix(70, 40, 600);
  const Matrix b = RandomMatrix(40, 21, 601);
  const std::string path = "/tmp/freehgc_test_dense_mapped.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(a.data(), sizeof(float), static_cast<size_t>(a.size()), f);
    std::fwrite(b.data(), sizeof(float), static_cast<size_t>(b.size()), f);
    std::fclose(f);
  }
  auto mf = MappedFile::OpenShared(path);
  ASSERT_TRUE(mf.ok());
  const auto* base = reinterpret_cast<const float*>((*mf)->data());
  const Matrix va = Matrix::FromView(
      a.rows(), a.cols(), {base, static_cast<size_t>(a.size())}, *mf);
  const Matrix vb = Matrix::FromView(
      b.rows(), b.cols(), {base + a.size(), static_cast<size_t>(b.size())},
      *mf);
  ASSERT_TRUE(va.is_mapped() && vb.is_mapped());

  ExpectProductsMatch(va, vb, "mapped");
  const Matrix bt = Transposed(b);
  const Matrix vat = Transposed(va);
  for (int threads : kThreadCounts) {
    exec::ExecContext ex(threads);
    EXPECT_TRUE(SameBytes(dense::MatMul(va, vb, &ex), dense::MatMul(a, b)));
    EXPECT_TRUE(SameBytes(dense::MatMulTA(va, va, &ex),
                          dense::reference::MatMulTARef(a, a)));
    EXPECT_TRUE(SameBytes(dense::MatMulTB(vb, vb, &ex),
                          dense::reference::MatMulTBRef(b, b)));
  }
  // The products read the views; they must not have detached them.
  EXPECT_TRUE(va.is_mapped() && vb.is_mapped());
  EXPECT_EQ(va.data(), base);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace freehgc
