#ifndef FREEHGC_DENSE_REFERENCE_H_
#define FREEHGC_DENSE_REFERENCE_H_

#include "dense/matrix.h"

namespace freehgc::dense::reference {

// Naive single-threaded reference implementations of the dense products
// in dense/matrix.h — the ground truth of the differential test harness
// (tests/dense_reference_test.cc) and the "old kernel" side of the dense
// rows in bench/bench_kernels.cc. They are the plain scalar loops the
// optimized kernels replaced, and they fix the rounding contract those
// kernels promise (per output element: start at +0.0f, add terms in
// ascending p, one rounded multiply and one rounded add per term, zero
// `a` factors skipped in MatMulRef and MatMulTARef), so agreement is
// expected bit-for-bit. Keep these boring: no parallelism, no tiling.

/// Sequential a * b, i-p-j loop order.
Matrix MatMulRef(const Matrix& a, const Matrix& b);

/// Sequential a^T * b, p-i-j loop order.
Matrix MatMulTARef(const Matrix& a, const Matrix& b);

/// Sequential a * b^T, one scalar dot product per output element.
Matrix MatMulTBRef(const Matrix& a, const Matrix& b);

}  // namespace freehgc::dense::reference

#endif  // FREEHGC_DENSE_REFERENCE_H_
