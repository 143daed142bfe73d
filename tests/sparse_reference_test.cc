// Differential test harness for the optimized sparse kernels: every
// kernel in sparse/ops.h is compared bit-for-bit against the naive
// single-threaded references in sparse/reference.h, on a seeded corpus
// of adversarial shapes, across thread counts {1, 2, 4}. Exact float
// equality throughout (EXPECT_EQ on the raw arrays, no tolerances; raw
// bytes where a zero's sign matters): the optimized kernels'
// determinism contract promises the references' accumulation orders
// per output element, so any drift is a bug.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/mapped_file.h"
#include "common/rng.h"
#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "metapath/metapath.h"
#include "sparse/csr.h"
#include "sparse/ops.h"
#include "sparse/reference.h"

namespace freehgc {
namespace {

CsrMatrix FromCooOrDie(int32_t rows, int32_t cols,
                       std::vector<CooEntry> entries) {
  auto res = CsrMatrix::FromCoo(rows, cols, std::move(entries));
  EXPECT_TRUE(res.ok());
  return std::move(res).value();
}

/// Uniformly random sparse matrix with values in [-2, 2).
CsrMatrix RandomSparse(int32_t rows, int32_t cols, double density,
                       uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      if (rng.NextDouble() < density) {
        entries.push_back({r, c, rng.NextUniform(-2.0f, 2.0f)});
      }
    }
  }
  return FromCooOrDie(rows, cols, std::move(entries));
}

/// Power-law-ish row degrees: a handful of hub rows own most entries —
/// the degree profile where static chunking is most lopsided.
CsrMatrix PowerLawSparse(int32_t rows, int32_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    const int32_t degree =
        r % 37 == 0 ? cols / 2 : static_cast<int32_t>(rng.NextBounded(4));
    for (int32_t k = 0; k < degree; ++k) {
      entries.push_back({r, static_cast<int32_t>(rng.NextBounded(
                                static_cast<uint64_t>(cols))),
                         rng.NextUniform(-2.0f, 2.0f)});
    }
  }
  return FromCooOrDie(rows, cols, std::move(entries));
}

/// Matrix with a band of empty rows in the middle and several zero-degree
/// trailing columns (never referenced by any entry).
CsrMatrix GappySparse(int32_t rows, int32_t cols, uint64_t seed) {
  Rng rng(seed);
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    if (r >= rows / 3 && r < 2 * rows / 3) continue;  // empty-row band
    const int32_t reachable = std::max(1, cols - 5);
    for (int32_t k = 0; k < 3; ++k) {
      entries.push_back({r, static_cast<int32_t>(rng.NextBounded(
                                static_cast<uint64_t>(reachable))),
                         rng.NextUniform(-2.0f, 2.0f)});
    }
  }
  return FromCooOrDie(rows, cols, std::move(entries));
}

/// Matrix holding explicitly stored zero values (and pairs that cancel
/// when multiplied), exercising the numeric pass's zero-drop compaction.
CsrMatrix ZeroValuedSparse(int32_t rows, int32_t cols) {
  std::vector<CooEntry> entries;
  for (int32_t r = 0; r < rows; ++r) {
    entries.push_back({r, r % cols, 0.0f});  // stored zero
    entries.push_back({r, (r + 1) % cols, r % 2 == 0 ? 1.5f : -1.5f});
  }
  return FromCooOrDie(rows, cols, std::move(entries));
}

struct CorpusEntry {
  std::string name;
  CsrMatrix m;
};

/// The seeded corpus: adversarial shapes for chunking, scatter, and
/// compaction paths.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"power_law_square", PowerLawSparse(300, 300, 7)});
  corpus.push_back({"rect_wide", RandomSparse(40, 500, 0.05, 11)});
  corpus.push_back({"rect_tall", RandomSparse(500, 40, 0.05, 13)});
  corpus.push_back({"empty_rows_zero_cols", GappySparse(200, 64, 17)});
  corpus.push_back({"all_empty", CsrMatrix(50, 30)});  // zero nnz
  corpus.push_back({"stored_zeros", ZeroValuedSparse(60, 60)});
  corpus.push_back({"one_by_n", RandomSparse(1, 400, 0.3, 19)});
  corpus.push_back({"n_by_one", RandomSparse(400, 1, 0.3, 23)});
  return corpus;
}

template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void ExpectBitIdentical(const CsrMatrix& got, const CsrMatrix& want,
                        const std::string& context) {
  ASSERT_EQ(got.rows(), want.rows()) << context;
  ASSERT_EQ(got.cols(), want.cols()) << context;
  EXPECT_EQ(ToVec(got.indptr()), ToVec(want.indptr())) << context;
  EXPECT_EQ(ToVec(got.indices()), ToVec(want.indices())) << context;
  // Exact, no tolerance.
  EXPECT_EQ(ToVec(got.values()), ToVec(want.values())) << context;
}

void ExpectValid(const CsrMatrix& m, const std::string& context) {
  const Status s = m.Validate();
  EXPECT_TRUE(s.ok()) << context << ": " << s.ToString();
}

/// Thread counts every kernel must agree across. 1 doubles as the "is
/// the parallel path value-preserving at all" anchor.
constexpr int kThreadCounts[] = {1, 2, 4};

TEST(SparseReferenceTest, TransposeMatchesReference) {
  for (const auto& e : Corpus()) {
    const CsrMatrix want = sparse::reference::TransposeRef(e.m);
    ExpectValid(want, e.name + " reference");
    for (int threads : kThreadCounts) {
      exec::ExecContext ex(threads);
      const CsrMatrix got = sparse::Transpose(e.m, &ex);
      const std::string context =
          e.name + " threads=" + std::to_string(threads);
      ExpectValid(got, context);
      ExpectBitIdentical(got, want, context);
    }
  }
}

TEST(SparseReferenceTest, NormalizeMatchesReference) {
  for (const auto& e : Corpus()) {
    const CsrMatrix want_row = sparse::reference::RowNormalizeRef(e.m);
    for (int threads : kThreadCounts) {
      exec::ExecContext ex(threads);
      const std::string context =
          e.name + " threads=" + std::to_string(threads);
      const CsrMatrix got_row = sparse::RowNormalize(e.m, &ex);
      ExpectValid(got_row, context);
      ExpectBitIdentical(got_row, want_row, "row_normalize " + context);
      if (e.m.rows() == e.m.cols()) {
        const CsrMatrix want_sym = sparse::reference::SymNormalizeRef(e.m);
        const CsrMatrix got_sym = sparse::SymNormalize(e.m, &ex);
        ExpectValid(got_sym, context);
        ExpectBitIdentical(got_sym, want_sym, "sym_normalize " + context);
      }
    }
  }
}

TEST(SparseReferenceTest, SpGemmMatchesReferenceAcrossThreads) {
  for (const auto& e : Corpus()) {
    // Square the matrix against its own transpose so every corpus shape
    // yields a composable pair (m x n) * (n x m).
    const CsrMatrix bt = sparse::reference::TransposeRef(e.m);
    for (int64_t budget : {int64_t{0}, int64_t{8}}) {
      const CsrMatrix want = sparse::reference::SpGemmRef(e.m, bt, budget);
      ExpectValid(want, e.name + " reference");
      for (int threads : kThreadCounts) {
        exec::ExecContext ex(threads);
        const std::string context = e.name +
                                    " budget=" + std::to_string(budget) +
                                    " threads=" + std::to_string(threads);
        const CsrMatrix got = sparse::SpGemm(e.m, bt, budget, &ex);
        ExpectValid(got, context);
        ExpectBitIdentical(got, want, context);
      }
    }
  }
}

/// Raw bytes of a span, where +0.0f and -0.0f (and NaN payloads) differ.
template <typename T>
std::vector<unsigned char> RawBytes(std::span<const T> s) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  return std::vector<unsigned char>(p, p + s.size_bytes());
}

void ExpectSameBytes(const CsrMatrix& got, const CsrMatrix& want,
                     const std::string& context) {
  ASSERT_EQ(got.rows(), want.rows()) << context;
  ASSERT_EQ(got.cols(), want.cols()) << context;
  EXPECT_EQ(RawBytes(got.indptr()), RawBytes(want.indptr())) << context;
  EXPECT_EQ(RawBytes(got.indices()), RawBytes(want.indices())) << context;
  EXPECT_EQ(RawBytes(got.values()), RawBytes(want.values())) << context;
}

/// CSR from per-row (column, value) lists, kept exactly as given (an
/// explicit -0.0f entry stays -0.0f). Columns must ascend within a row.
CsrMatrix FromRows(
    int32_t cols,
    const std::vector<std::vector<std::pair<int32_t, float>>>& rows) {
  std::vector<int64_t> indptr{0};
  std::vector<int32_t> indices;
  std::vector<float> values;
  for (const auto& row : rows) {
    for (const auto& [c, v] : row) {
      indices.push_back(c);
      values.push_back(v);
    }
    indptr.push_back(static_cast<int64_t>(indices.size()));
  }
  auto res = CsrMatrix::FromParts(static_cast<int32_t>(rows.size()), cols,
                                  std::move(indptr), std::move(indices),
                                  std::move(values));
  EXPECT_TRUE(res.ok());
  return std::move(res).value();
}

TEST(SparseReferenceTest, SpGemmLeavesNoResidueAfterCancelledSlots) {
  // Four rows in one chunk (the row grain is 64), so one worker's
  // accumulator and marker carry over from row to row:
  //   row 0: columns 0 and 1 cancel to exactly +0.0f, and columns 2
  //          and 5 receive only -0.0f products (1e-30 * -1e-30
  //          underflows); columns 3 and 4 survive;
  //   row 1: touches every column again, all sums nonzero;
  //   row 2: every product cancels — an empty output row;
  //   row 3: touches the cancelled columns again.
  // Budget 1 also prunes rows 1 and 3, so pruned slots must be reset
  // as well. Compared by raw bytes, where +0.0f and -0.0f differ.
  const float tiny = 1e-30f;
  const CsrMatrix a = FromCooOrDie(
      4, 5,
      {{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 2, -tiny},
       {1, 0, 2.0f}, {1, 3, 1.0f},
       {2, 0, 1.0f}, {2, 4, 1.0f},
       {3, 2, 3.0f}, {3, 3, -1.0f}});
  const CsrMatrix b = FromCooOrDie(
      5, 6,
      {{0, 0, 1.0f}, {0, 1, 2.0f}, {0, 3, 3.0f},
       {1, 0, -1.0f}, {1, 1, -2.0f}, {1, 4, 5.0f},
       {2, 2, tiny}, {2, 5, tiny},
       {3, 0, 0.5f}, {3, 1, -0.25f}, {3, 2, 4.0f}, {3, 4, -7.0f},
       {3, 5, 1.5f},
       {4, 0, -1.0f}, {4, 1, -2.0f}, {4, 3, -3.0f}});
  for (int64_t budget : {int64_t{0}, int64_t{1}, int64_t{6}}) {
    const CsrMatrix want = sparse::reference::SpGemmRef(a, b, budget);
    ASSERT_TRUE(want.Validate().ok());
    // The corpus exercises what the test is named for.
    EXPECT_EQ(want.RowNnz(0), budget == 1 ? 1 : 2);  // columns 3, 4
    EXPECT_EQ(want.RowNnz(1), budget == 1 ? 1 : 6);
    EXPECT_EQ(want.RowNnz(2), 0);
    EXPECT_EQ(want.RowNnz(3), budget == 1 ? 1 : 5);
    for (int threads = 1; threads <= 4; ++threads) {
      exec::ExecContext ex(threads);
      const CsrMatrix got = sparse::SpGemm(a, b, budget, &ex);
      const std::string context = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
      ExpectValid(got, context);
      ExpectSameBytes(got, want, context);
    }
  }
}

TEST(SparseReferenceTest, SpMmDenseMatchesReference) {
  for (const auto& e : Corpus()) {
    Rng rng(101);
    // 70 columns straddles the 64-wide cache block (one full block plus
    // a ragged tail).
    Matrix x(e.m.cols(), 70);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = rng.NextUniform(-1.0f, 1.0f);
    }
    const Matrix want = sparse::reference::SpMmDenseRef(e.m, x);
    for (int threads : kThreadCounts) {
      exec::ExecContext ex(threads);
      const std::string context =
          e.name + " threads=" + std::to_string(threads);
      EXPECT_TRUE(sparse::SpMmDense(e.m, x, &ex) == want) << context;
    }
  }
}

TEST(SparseReferenceTest, SpMvMatchesReference) {
  for (const auto& e : Corpus()) {
    Rng rng(103);
    std::vector<float> x(static_cast<size_t>(e.m.cols()));
    for (auto& v : x) v = rng.NextUniform(-1.0f, 1.0f);
    const std::vector<float> want = sparse::reference::SpMvRef(e.m, x);
    for (int threads : kThreadCounts) {
      exec::ExecContext ex(threads);
      const std::string context =
          e.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(sparse::SpMv(e.m, x, &ex), want) << context;
    }
  }
}

/// Raw-byte equality of two float arrays: unlike EXPECT_EQ on floats,
/// this tells +0.0f from -0.0f.
void ExpectSameBytes(std::span<const float> got, std::span<const float> want,
                     const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  if (got.empty()) return;  // memcmp must not see an empty span's null
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << context;
}

/// Thread counts of the bipartite-block and Jaccard suites: 3 adds a
/// worker count that does not divide the chunk count evenly.
constexpr int kThreadCountsWide[] = {1, 2, 3, 4};

/// A 7 x 6 matrix with empty rows 1 and 4, empty columns 2 and 5, and
/// stored +0.0f and -0.0f values (built from parts: a COO build would
/// sum -0.0f into +0.0f).
CsrMatrix SignedZeroSparse() {
  auto res = CsrMatrix::FromParts(
      7, 6, {0, 3, 3, 5, 6, 6, 8, 10}, {0, 1, 3, 0, 4, 1, 3, 4, 0, 1},
      {-0.0f, 0.0f, 1.5f, -2.0f, -0.0f, 0.25f, 0.0f, -0.0f, 3.0f, -1.0f});
  EXPECT_TRUE(res.ok());
  return std::move(res).value();
}

TEST(SparseReferenceTest, BipartiteBlockMatchesReference) {
  std::vector<CorpusEntry> inputs = Corpus();
  inputs.push_back({"signed_zeros", SignedZeroSparse()});
  // More than one kAxpyGrain (2048) of entries, so the copy is chunked.
  inputs.push_back({"multi_chunk", RandomSparse(400, 300, 0.05, 31)});
  for (const auto& e : inputs) {
    const CsrMatrix want = sparse::reference::BipartiteBlockRef(e.m);
    ExpectValid(want, e.name + " reference");
    for (int threads : kThreadCountsWide) {
      exec::ExecContext ex(threads);
      const CsrMatrix got = sparse::BipartiteBlock(e.m, &ex);
      const std::string context =
          e.name + " threads=" + std::to_string(threads);
      ExpectValid(got, context);
      ExpectBitIdentical(got, want, context);
      ExpectSameBytes(got.values(), want.values(), context);
    }
  }
  // The stored -0.0f entries come out as +0.0f on both sides.
  const CsrMatrix block = sparse::BipartiteBlock(SignedZeroSparse());
  int zeros = 0;
  for (float v : block.values()) {
    if (v != 0.0f) continue;
    ++zeros;
    EXPECT_FALSE(std::signbit(v));
  }
  EXPECT_EQ(zeros, 10);  // five stored zeros, each mirrored
}

TEST(SparseReferenceTest, PprScoresMatchesReference) {
  // PprScores iterates only the half chain that feeds the father rows
  // [split, n); those rows must equal the father half of the reference's
  // full iteration byte for byte. tol = 0 runs every reference iteration.
  // Each block is SymNormalize(BipartiteBlock(m)), bit-exactly symmetric
  // as NIM builds it, so PprScores' A pi equals the reference's A^T pi.
  // Odd and even max_iters start the chain on different halves.
  std::vector<CorpusEntry> inputs = Corpus();
  inputs.push_back({"signed_zeros", SignedZeroSparse()});
  // Halves of several kRowScaleGrain (512) rows, so each step is chunked.
  inputs.push_back({"multi_chunk", PowerLawSparse(1500, 1100, 29)});
  for (const auto& e : inputs) {
    const CsrMatrix block =
        sparse::SymNormalize(sparse::BipartiteBlock(e.m));
    const int32_t split = e.m.rows();
    // Positive teleport on every node, so both halves read it.
    Rng rng(41);
    std::vector<float> teleport(static_cast<size_t>(block.rows()));
    for (auto& t : teleport) t = rng.NextUniform(0.0f, 1.0f);
    for (int iters : {0, 1, 2, 7, 20}) {
      const std::vector<float> full =
          sparse::reference::PprScoresRef(block, teleport, 0.15f, iters, 0.0f);
      const std::span<const float> want(full.data() + split,
                                        full.size() - split);
      for (int threads : kThreadCountsWide) {
        exec::ExecContext ex(threads);
        const std::vector<float> got = sparse::PprScores(
            block, split, teleport, 0.15f, iters, &ex);
        ExpectSameBytes(got, want,
                        e.name + " iters=" + std::to_string(iters) +
                            " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(SparseReferenceTest, PprScoresOnIsolatedTeleportIsZero) {
  // All teleport mass sits on targets 3-5, which have no edge: no mass
  // ever reaches a father. The reference with tol = 1e-6 stops after 2
  // iterations (the second changes nothing); PprScores runs all 30, and
  // both father halves are all +0.0f.
  const CsrMatrix m =
      FromCooOrDie(6, 4, {{0, 0, 1.0f}, {0, 2, 0.5f}, {1, 1, 2.0f},
                          {2, 3, 1.0f}, {2, 0, 1.0f}});
  const CsrMatrix block = sparse::SymNormalize(sparse::BipartiteBlock(m));
  std::vector<float> teleport(10, 0.0f);
  for (int t : {3, 4, 5}) teleport[static_cast<size_t>(t)] = 1.0f / 3.0f;
  const std::vector<float> stopped =
      sparse::reference::PprScoresRef(block, teleport, 0.15f, 30, 1e-6f);
  EXPECT_EQ(stopped,
            sparse::reference::PprScoresRef(block, teleport, 0.15f, 2, 0.0f));
  const std::vector<float> zeros(4, 0.0f);
  ExpectSameBytes({stopped.data() + 6, 4}, zeros, "reference");
  for (int threads : kThreadCountsWide) {
    exec::ExecContext ex(threads);
    ExpectSameBytes(sparse::PprScores(block, 6, teleport, 0.15f, 30, &ex),
                    zeros, "threads=" + std::to_string(threads));
  }
}

TEST(SparseReferenceTest, PprScoresRejectsANonBipartiteBlock) {
  // The half-chain update writes one half in place while reading the
  // other, so an entry inside a half (or a split that cuts through the
  // layout) must be refused.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const CsrMatrix block = sparse::BipartiteBlock(
      FromCooOrDie(2, 2, {{0, 0, 1.0f}, {1, 1, 1.0f}, {1, 0, 0.5f}}));
  const std::vector<float> teleport(4, 0.25f);
  EXPECT_EQ(sparse::PprScores(block, 2, teleport, 0.15f, 3).size(), 2u);
  EXPECT_DEATH(sparse::PprScores(block, 3, teleport, 0.15f, 3),
               "inside its half");
  const CsrMatrix inside =
      FromCooOrDie(4, 4, {{0, 2, 1.0f}, {2, 0, 1.0f}, {3, 1, 1.0f},
                          {1, 3, 1.0f}, {3, 2, 1.0f}});
  EXPECT_DEATH(sparse::PprScores(inside, 2, teleport, 0.15f, 3),
               "inside its half");
}

/// `l` paths over 300 nodes and 160 end-type columns. Node v % 5 picks
/// the row pattern: 0 empty on every path, 1 the same set on every path,
/// 2 pairwise-disjoint sets, 3 empty on every third path and random
/// otherwise, 4 random.
std::vector<CsrMatrix> JaccardPaths(size_t l, uint64_t seed) {
  constexpr int32_t kRows = 300, kCols = 160;
  Rng rng(seed);
  std::vector<CsrMatrix> paths;
  for (size_t p = 0; p < l; ++p) {
    std::vector<CooEntry> entries;
    for (int32_t v = 0; v < kRows; ++v) {
      switch (v % 5) {
        case 1:
          for (int32_t c = v % 7; c < kCols; c += 9) {
            entries.push_back({v, c, 1.0f});
          }
          break;
        case 2:
          entries.push_back({v, static_cast<int32_t>(2 * p), 1.0f});
          entries.push_back({v, static_cast<int32_t>(2 * p + 1), 1.0f});
          break;
        case 3:
          if (p % 3 == 0) break;
          [[fallthrough]];
        case 4:
          for (int32_t c = 0; c < kCols; ++c) {
            if (rng.NextDouble() < 0.1) entries.push_back({v, c, 1.0f});
          }
          break;
        default:
          break;
      }
    }
    paths.push_back(FromCooOrDie(kRows, kCols, std::move(entries)));
  }
  return paths;
}

TEST(SparseReferenceTest, PerPathJaccardMatchesReference) {
  // Path counts around the 64-paths-per-mask-word boundary.
  for (size_t l : {1, 2, 3, 24, 64, 65, 70}) {
    const std::vector<CsrMatrix> owned = JaccardPaths(l, 100 + l);
    std::vector<const CsrMatrix*> paths;
    for (const auto& m : owned) paths.push_back(&m);
    const auto want = reference::PerPathJaccardRef(paths);
    ASSERT_EQ(want.size(), l);
    for (int threads : kThreadCountsWide) {
      exec::ExecContext ex(threads);
      const auto got = PerPathJaccard(paths, &ex);
      ASSERT_EQ(got.size(), l);
      for (size_t i = 0; i < l; ++i) {
        ExpectSameBytes(got[i], want[i],
                        "l=" + std::to_string(l) + " path=" +
                            std::to_string(i) +
                            " threads=" + std::to_string(threads));
      }
    }
    if (l >= 2) {
      // Node 0 is empty everywhere (J = 1 per pair), node 1 identical
      // (J = 1), node 2 disjoint (J = 0).
      EXPECT_EQ(want[0][0], 1.0f);
      EXPECT_EQ(want[0][1], 1.0f);
      EXPECT_EQ(want[0][2], 0.0f);
    }
  }
}

TEST(SparseReferenceTest, PruningTieBreakKeepsSmallerColumns) {
  // Row 0 of a*b has four entries of equal magnitude 1.0 at columns
  // 0..3. With max_row_nnz = 2 the pinned rule (|value| desc, then
  // smaller column) must keep columns {0, 1} — at every thread count,
  // and regardless of sign.
  std::vector<CooEntry> ae, be;
  for (int32_t c = 0; c < 4; ++c) {
    ae.push_back({0, c, 1.0f});
    be.push_back({c, c, c % 2 == 0 ? 1.0f : -1.0f});
  }
  const CsrMatrix a = FromCooOrDie(1, 4, std::move(ae));
  const CsrMatrix b = FromCooOrDie(4, 4, std::move(be));
  for (int threads : kThreadCounts) {
    exec::ExecContext ex(threads);
    const CsrMatrix got = sparse::SpGemm(a, b, 2, &ex);
    ASSERT_EQ(got.RowNnz(0), 2);
    EXPECT_EQ(got.RowIndices(0)[0], 0);
    EXPECT_EQ(got.RowIndices(0)[1], 1);
    EXPECT_EQ(got.RowValues(0)[0], 1.0f);
    EXPECT_EQ(got.RowValues(0)[1], -1.0f);
  }
}

TEST(SparseReferenceTest, TruncatingSpGemmMatchesReferenceOnBothEmitPaths) {
  // SpGemm emits a row in column order either by walking its marker
  // words (touched columns dense in their span) or, when the span is
  // more than ~2 words per touched column, by sorting the touched list.
  // b's rows come in two kinds: "clustered" rows inside one narrow
  // window (their products walk) and "spread" rows over the full width
  // (their products sort). Values come from a tiny set, so |v| ties,
  // negative values, exact cancellations and explicit -0.0f entries
  // (whose products are -0.0f) are everywhere.
  constexpr int32_t kCols = 64 * 256;
  constexpr float kValues[] = {1.0f, -1.0f, 0.5f, -0.5f, 2.0f, -0.0f};
  Rng rng(33);
  auto value = [&] {
    return kValues[rng.NextBounded(sizeof(kValues) / sizeof(kValues[0]))];
  };
  auto row_of = [&](int32_t lo, int32_t width, int32_t count) {
    std::vector<int32_t> cs;
    for (int32_t k = 0; k < count; ++k) {
      cs.push_back(lo + static_cast<int32_t>(rng.NextBounded(
                            static_cast<uint64_t>(width))));
    }
    std::sort(cs.begin(), cs.end());
    cs.erase(std::unique(cs.begin(), cs.end()), cs.end());
    std::vector<std::pair<int32_t, float>> row;
    for (int32_t c : cs) row.emplace_back(c, value());
    return row;
  };
  constexpr int32_t kClustered = 60, kSpread = 60;
  std::vector<std::vector<std::pair<int32_t, float>>> b_rows;
  for (int32_t r = 0; r < kClustered; ++r) {
    // Windows of 512 columns (8 words) at one of 4 offsets, so rows
    // sharing a window also cancel and tie with each other.
    const int32_t lo = static_cast<int32_t>(rng.NextBounded(4)) * 4096;
    b_rows.push_back(
        row_of(lo, 512, 20 + static_cast<int32_t>(rng.NextBounded(60))));
  }
  for (int32_t r = 0; r < kSpread; ++r) {
    b_rows.push_back(
        row_of(0, kCols, 2 + static_cast<int32_t>(rng.NextBounded(6))));
  }
  const CsrMatrix b = FromRows(kCols, b_rows);
  // 300 rows of a (several 64-row chunks): even rows combine clustered
  // b rows, odd rows spread ones; every 7th row is empty.
  std::vector<std::vector<std::pair<int32_t, float>>> a_rows;
  for (int32_t r = 0; r < 300; ++r) {
    std::vector<std::pair<int32_t, float>> row;
    if (r % 7 != 0) {
      const int32_t base = r % 2 == 0 ? 0 : kClustered;
      const int32_t count = 1 + static_cast<int32_t>(rng.NextBounded(5));
      std::vector<int32_t> ks;
      for (int32_t k = 0; k < count; ++k) {
        ks.push_back(base + static_cast<int32_t>(rng.NextBounded(
                                r % 2 == 0 ? kClustered : kSpread)));
      }
      std::sort(ks.begin(), ks.end());
      ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
      for (int32_t k : ks) row.emplace_back(k, value());
    }
    a_rows.push_back(std::move(row));
  }
  const CsrMatrix a = FromRows(kClustered + kSpread, a_rows);

  // The corpus reaches both emit paths, truncating on each (the
  // kernel's rule: sort when the touched span exceeds ~2 words per
  // touched column).
  int walk_rows = 0, sort_rows = 0, walk_truncated = 0, sort_truncated = 0;
  const CsrMatrix exact = sparse::reference::SpGemmRef(a, b, 0);
  for (int32_t r = 0; r < a.rows(); ++r) {
    std::vector<int32_t> touched;
    for (int32_t k : a.RowIndices(r)) {
      for (int32_t c : b.RowIndices(k)) touched.push_back(c);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    if (touched.empty()) continue;
    const size_t span = static_cast<size_t>(touched.back() / 64 -
                                            touched.front() / 64 + 1);
    const bool truncates = exact.RowNnz(r) > 4;
    if (span <= 2 * touched.size()) {
      ++walk_rows;
      walk_truncated += truncates ? 1 : 0;
    } else {
      ++sort_rows;
      sort_truncated += truncates ? 1 : 0;
    }
  }
  EXPECT_GT(walk_truncated, 0);
  EXPECT_GT(sort_truncated, 0);
  EXPECT_GT(walk_rows, walk_truncated);
  EXPECT_GT(sort_rows, sort_truncated);

  for (int64_t budget : {int64_t{0}, int64_t{1}, int64_t{4}, int64_t{16},
                         int64_t{64}}) {
    const CsrMatrix want = sparse::reference::SpGemmRef(a, b, budget);
    ExpectValid(want, "reference budget=" + std::to_string(budget));
    for (int threads : {1, 3, 4}) {
      exec::ExecContext ex(threads);
      const std::string context = "budget=" + std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
      const CsrMatrix got = sparse::SpGemm(a, b, budget, &ex);
      ExpectValid(got, context);
      ExpectSameBytes(got, want, context);
    }
  }
}

TEST(SparseReferenceTest, SpGemmRanksNanAboveInfAtEveryThreadCount) {
#ifndef NDEBUG
  // Debug builds assert that every kernel output is finite.
  GTEST_SKIP() << "non-finite SpGEMM output aborts a Debug build";
#endif
  // Truncation orders by the magnitude's IEEE bits: NaN > +inf = |-inf|
  // > finite, ties to the smaller column. SpGemmRef's comparator is not
  // a strict weak order on NaN, so the kernel is pinned by hand here
  // and compared across thread counts, not against the reference.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const CsrMatrix a = FromRows(3, {{{0, 1.0f}, {1, 1.0f}, {2, 1.0f}}});
  const CsrMatrix b = FromRows(
      5, {{{3, -inf}}, {{1, nan}, {4, inf}}, {{0, 5.0f}, {2, -7.0f}}});
  const std::vector<std::vector<int32_t>> keeps = {
      {1}, {1, 3}, {1, 3, 4}, {1, 2, 3, 4}, {0, 1, 2, 3, 4}};
  for (int64_t budget = 1; budget <= 5; ++budget) {
    for (int threads : {1, 3, 4}) {
      exec::ExecContext ex(threads);
      const CsrMatrix got = sparse::SpGemm(a, b, budget, &ex);
      const std::vector<int32_t> cols = ToVec(got.RowIndices(0));
      EXPECT_EQ(cols, keeps[static_cast<size_t>(budget - 1)])
          << "budget=" << budget << " threads=" << threads;
    }
  }

  // A wider corpus with NaN and inf sprinkled in: byte-identical output
  // at every thread count.
  Rng rng(77);
  std::vector<std::vector<std::pair<int32_t, float>>> rows;
  for (int32_t r = 0; r < 200; ++r) {
    std::vector<std::pair<int32_t, float>> row;
    for (int32_t c = 0; c < 300; ++c) {
      if (rng.NextDouble() >= 0.08) continue;
      const uint64_t kind = rng.NextBounded(20);
      row.emplace_back(c, kind == 0   ? nan
                          : kind == 1 ? inf
                          : kind == 2 ? -inf
                                      : rng.NextUniform(-2.0f, 2.0f));
    }
    rows.push_back(std::move(row));
  }
  const CsrMatrix m = FromRows(300, rows);
  const CsrMatrix mt = sparse::reference::TransposeRef(m);
  exec::ExecContext ex1(1);
  for (int64_t budget : {int64_t{0}, int64_t{3}, int64_t{16}}) {
    const CsrMatrix want = sparse::SpGemm(m, mt, budget, &ex1);
    for (int threads : {3, 4}) {
      exec::ExecContext ex(threads);
      ExpectSameBytes(sparse::SpGemm(m, mt, budget, &ex), want,
                      "budget=" + std::to_string(budget) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(SparseReferenceTest, MappedViewsAreBitIdenticalToOwnedInKernels) {
  // Differential over storage backing: the same CSR once owned and once
  // as FromView spans over an actual mmap'd file (the v3 container load
  // path). Every kernel must produce bit-identical output from either —
  // kernels read through ArrayRef::span() and never see the backing.
  const CsrMatrix a = RandomSparse(120, 100, 0.06, 21);
  const CsrMatrix b = RandomSparse(100, 90, 0.06, 22);

  const std::string path = "/tmp/freehgc_test_sparse_mapped.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // indptr first keeps every array naturally aligned in the mapping:
    // (rows + 1) * 8 is 8-aligned, the int32/float arrays need only 4.
    std::fwrite(a.indptr().data(), sizeof(int64_t), a.indptr().size(), f);
    std::fwrite(a.indices().data(), sizeof(int32_t), a.indices().size(), f);
    std::fwrite(a.values().data(), sizeof(float), a.values().size(), f);
    std::fclose(f);
  }
  auto mf = MappedFile::OpenShared(path);
  ASSERT_TRUE(mf.ok());
  const auto* base = (*mf)->data();
  const size_t indptr_bytes = a.indptr().size() * sizeof(int64_t);
  const size_t indices_bytes = a.indices().size() * sizeof(int32_t);
  auto view = CsrMatrix::FromView(
      a.rows(), a.cols(),
      {reinterpret_cast<const int64_t*>(base), a.indptr().size()},
      {reinterpret_cast<const int32_t*>(base + indptr_bytes),
       a.indices().size()},
      {reinterpret_cast<const float*>(base + indptr_bytes + indices_bytes),
       a.values().size()},
      *mf);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->values().data(),
            reinterpret_cast<const float*>(base + indptr_bytes +
                                           indices_bytes));  // zero-copy

  EXPECT_TRUE(*view == a);
  for (int threads : kThreadCounts) {
    exec::ExecContext ex(threads);
    EXPECT_TRUE(sparse::SpGemm(*view, b, 0, &ex) ==
                sparse::SpGemm(a, b, 0, &ex));
    EXPECT_TRUE(sparse::Transpose(*view, &ex) == sparse::Transpose(a, &ex));
    EXPECT_TRUE(sparse::RowNormalize(*view, &ex) ==
                sparse::RowNormalize(a, &ex));
  }

  // The kernels above must not have detached the view.
  EXPECT_EQ(view->values().data(),
            reinterpret_cast<const float*>(base + indptr_bytes +
                                           indices_bytes));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace freehgc
