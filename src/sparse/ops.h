#ifndef FREEHGC_SPARSE_OPS_H_
#define FREEHGC_SPARSE_OPS_H_

#include <cstdint>
#include <vector>

#include "dense/matrix.h"
#include "exec/exec_context.h"
#include "sparse/csr.h"

namespace freehgc::sparse {

// Every op takes an optional ExecContext; nullptr falls back to the
// process-wide default (FREEHGC_THREADS / hardware concurrency). All
// parallel paths follow the determinism contract (static chunking +
// ordered reduction, see exec/exec_context.h): results are bit-identical
// for every thread count and to the naive references in
// sparse/reference.h (tests/sparse_reference_test.cc).

/// Returns a^T. Two-pass parallel count/scatter: a per-chunk column
/// histogram fixes every entry's output slot, so the scatter writes
/// disjoint positions in source-row order (output rows stay sorted and
/// the result is bit-identical to the sequential transpose).
CsrMatrix Transpose(const CsrMatrix& a, exec::ExecContext* ctx = nullptr);

/// Embeds a bipartite (nt x ns) matrix into the square symmetric block
/// matrix [[0, A], [A^T, 0]] of size nt + ns — the graph NIM scores per
/// meta-path. Built straight from CSR: the top rows are a's rows with
/// columns shifted by nt, the bottom rows are Transpose(a). Every value
/// is stored as 0.0f + v, the sum a COO build gives a single entry, so
/// the result is byte-identical to reference::BipartiteBlockRef (a
/// stored -0.0f becomes +0.0f).
CsrMatrix BipartiteBlock(const CsrMatrix& a,
                         exec::ExecContext* ctx = nullptr);

/// Returns D^-1 A (rows scaled to sum 1; zero rows stay zero). This is the
/// row-normalized adjacency \hat{A} of Eq. (1) in the paper.
CsrMatrix RowNormalize(const CsrMatrix& a,
                       exec::ExecContext* ctx = nullptr);

/// Returns D^-1/2 A D^-1/2 for a square matrix (degree = row value sums;
/// zero-degree rows/cols stay zero). Used by the PPR-based neighbor
/// influence maximization (Eq. 11 uses \hat{A}^{sym}). Scales `a`'s
/// values in place, so a caller that moves its matrix in pays no copy.
CsrMatrix SymNormalize(CsrMatrix a, exec::ExecContext* ctx = nullptr);

/// Sparse-sparse product a * b: one Gustavson pass per row (dense
/// accumulator plus a one-bit-per-column first-touch marker from the
/// worker's Workspace), staged per chunk and spliced at prefix-summed
/// offsets. Transient memory is O(pruned output) plus one accumulator
/// of b.cols() floats and one marker of b.cols() bits per worker;
/// nothing proportional to the unpruned product is allocated.
///
/// Exact zeros (cancellations) are dropped. `max_row_nnz` bounds
/// densification: when > 0, each output row keeps only the
/// `max_row_nnz` entries largest by (|value|, then smaller column
/// index) — the column tie-break pins the selection so equal-magnitude
/// ties resolve identically at every thread count. The order is taken
/// on the magnitude's IEEE bits, so NaN ranks above +inf. A row is
/// finalized without a per-row sort: `nth_element` over packed
/// (|value|, column) keys finds the K-th key, and the survivors are
/// emitted by walking the marker words in column order (a sparse, wide
/// row sorts its touched list instead). Meta-path composition (Eq. 1)
/// chains several SpGEMMs, whose exact result densifies on power-law
/// graphs; the budget mirrors the error-threshold sparsification the
/// paper invokes for scalability. 0 means exact.
CsrMatrix SpGemm(const CsrMatrix& a, const CsrMatrix& b,
                 int64_t max_row_nnz = 0, exec::ExecContext* ctx = nullptr);

/// Dense product a * x (x dense (a.cols, d)). The inner loop is blocked
/// over x's columns so the output row strip stays cache-resident while a
/// row's sparse entries stream by; per-element accumulation order is
/// unchanged (bit-identical to the unblocked loop).
Matrix SpMmDense(const CsrMatrix& a, const Matrix& x,
                 exec::ExecContext* ctx = nullptr);

/// y = a * x for a dense vector x.
std::vector<float> SpMv(const CsrMatrix& a, const std::vector<float>& x,
                        exec::ExecContext* ctx = nullptr);

/// Extracts the submatrix a[row_keep, col_keep] with indices remapped to
/// the keep-list positions. Keep-lists must contain valid, unique ids.
CsrMatrix Submatrix(const CsrMatrix& a, const std::vector<int32_t>& row_keep,
                    const std::vector<int32_t>& col_keep);

/// Personalized PageRank on a bipartite block, by power iteration:
///   pi <- alpha * teleport + (1 - alpha) * A pi
/// where `block` is n x n with the bipartite layout [[0, B], [C, 0]] of
/// BipartiteBlock: its top `split` rows have entries only in columns
/// [split, n) and its other rows only in columns [0, split). `teleport`
/// has n entries. Runs exactly `max_iters` iterations and returns the
/// n - split entries of pi in rows [split, n) (NIM's father half).
///
/// Each half of A pi reads only the other half of pi, so the father half
/// after max_iters steps depends on one alternating chain of
/// half-iterates. Step `it` computes just the half whose parity feeds the
/// father rows at max_iters, in place in one buffer (the half it reads is
/// not written in that step), and each computed row keeps the full
/// iteration's expression and summation order: the result equals the
/// father half of the full iteration bit for bit. For a bit-exactly
/// symmetric block (a SymNormalize'd BipartiteBlock, whose mirror
/// entries multiply the same value by the same single-rounded inv_sqrt
/// product), A pi == A^T pi bit for bit, which is Eq. (13)'s aggregate
/// neighbor influence; reference::PprScoresRef (A^T pi, any matrix) is
/// its oracle. Dies on a block with an entry inside a half.
std::vector<float> PprScores(const CsrMatrix& block, int32_t split,
                             const std::vector<float>& teleport, float alpha,
                             int max_iters, exec::ExecContext* ctx = nullptr);

}  // namespace freehgc::sparse

#endif  // FREEHGC_SPARSE_OPS_H_
