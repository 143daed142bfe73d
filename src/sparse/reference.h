#ifndef FREEHGC_SPARSE_REFERENCE_H_
#define FREEHGC_SPARSE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "dense/matrix.h"
#include "sparse/csr.h"

namespace freehgc::sparse::reference {

// Naive single-threaded reference implementations of the optimized
// kernels in sparse/ops.h — the ground truth of the differential test
// harness (tests/sparse_reference_test.cc) and the "old kernel" side of
// bench/bench_kernels.cc. Each mirrors the obvious textbook algorithm
// and, deliberately, the optimized kernel's floating-point accumulation
// order per output element, so agreement is expected bit-for-bit (not
// within a tolerance). Keep these boring: no parallelism, no workspace
// reuse, no blocking.

/// Sequential a^T via column-bucket scatter in ascending source-row order.
CsrMatrix TransposeRef(const CsrMatrix& a);

/// Sequential [[0, A], [A^T, 0]] through a COO build: every entry of `a`
/// and its mirror go through CsrMatrix::FromCoo's sort and duplicate-sum.
CsrMatrix BipartiteBlockRef(const CsrMatrix& a);

/// Sequential D^-1 A.
CsrMatrix RowNormalizeRef(const CsrMatrix& a);

/// Sequential D^-1/2 A D^-1/2.
CsrMatrix SymNormalizeRef(const CsrMatrix& a);

/// Sequential Gustavson SpGEMM with the same zero-drop and max_row_nnz
/// semantics as ops.h SpGemm. Pruning uses a full stable ranking by
/// (|value| descending, then smaller column index) — the pinned
/// tie-break rule — rather than the optimized kernel's partial select,
/// so it independently cross-checks the selection.
CsrMatrix SpGemmRef(const CsrMatrix& a, const CsrMatrix& b,
                    int64_t max_row_nnz = 0);

/// Sequential a * x, accumulating each output element in ascending
/// sparse-entry order (matches the blocked kernel's per-element order).
Matrix SpMmDenseRef(const CsrMatrix& a, const Matrix& x);

/// Sequential y = a * x.
std::vector<float> SpMvRef(const CsrMatrix& a, const std::vector<float>& x);

/// Sequential PPR power iteration:
///   pi <- alpha * teleport + (1 - alpha) * A^T pi
/// with A^T pi as a column scatter in ascending source-row order (no
/// zero-skip: every stored entry contributes) and the L1 delta folded
/// left-to-right in doubles; it stops once that delta drops below `tol`.
/// PprScores has no tolerance and always runs max_iters, so differential
/// runs use tol = 0 and compare the father half of this result.
std::vector<float> PprScoresRef(const CsrMatrix& a,
                                const std::vector<float>& teleport,
                                float alpha, int max_iters, float tol);

}  // namespace freehgc::sparse::reference

#endif  // FREEHGC_SPARSE_REFERENCE_H_
