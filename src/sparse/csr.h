#ifndef FREEHGC_SPARSE_CSR_H_
#define FREEHGC_SPARSE_CSR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/storage.h"

namespace freehgc {

/// One COO entry used when building CSR matrices.
struct CooEntry {
  int32_t row = 0;
  int32_t col = 0;
  float value = 1.0f;
};

/// Compressed-sparse-row float matrix.
///
/// The core structural container of the library: every relation of a
/// heterogeneous graph and every composed meta-path adjacency is a
/// CsrMatrix. Rows/cols are int32 node ids local to a node type; indptr is
/// int64 so edge counts may exceed 2^31.
///
/// Storage is either owned (heap vectors, the default for every kernel
/// output) or a zero-copy view over external memory — the v3 mapped
/// container path builds matrices with FromView over mmap'd sections,
/// pinned by a keepalive shared_ptr (see common/storage.h). All read
/// accessors are identical across backings; mutable_values() copies a
/// view into owned storage first (copy-on-write), so kernels never
/// observe the difference.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// rows x cols matrix with no entries.
  CsrMatrix(int32_t rows, int32_t cols)
      : rows_(rows), cols_(cols),
        indptr_(std::vector<int64_t>(static_cast<size_t>(rows) + 1, 0)) {}

  /// Builds from (possibly duplicated, unsorted) COO entries; duplicate
  /// coordinates are summed. Fails if any coordinate is out of range.
  static Result<CsrMatrix> FromCoo(int32_t rows, int32_t cols,
                                   std::vector<CooEntry> entries);

  /// Adopts pre-built CSR arrays. Validates monotone indptr and in-range
  /// column indices.
  static Result<CsrMatrix> FromParts(int32_t rows, int32_t cols,
                                     std::vector<int64_t> indptr,
                                     std::vector<int32_t> indices,
                                     std::vector<float> values);

  /// Wraps external CSR arrays without copying; `keepalive` pins the
  /// memory (a MappedFile for container-backed matrices). Runs the same
  /// structural validation as FromParts, with branch-free loops — this is
  /// the per-relation cost of a mapped graph load, so it must scan at
  /// memory bandwidth rather than branch per element.
  static Result<CsrMatrix> FromView(int32_t rows, int32_t cols,
                                    std::span<const int64_t> indptr,
                                    std::span<const int32_t> indices,
                                    std::span<const float> values,
                                    std::shared_ptr<const void> keepalive);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(indices_.size()); }

  /// Column indices of row r's entries (sorted ascending).
  std::span<const int32_t> RowIndices(int32_t r) const {
    return {indices_.data() + indptr_[r],
            static_cast<size_t>(indptr_[r + 1] - indptr_[r])};
  }

  /// Values of row r's entries, aligned with RowIndices.
  std::span<const float> RowValues(int32_t r) const {
    return {values_.data() + indptr_[r],
            static_cast<size_t>(indptr_[r + 1] - indptr_[r])};
  }

  int64_t RowNnz(int32_t r) const { return indptr_[r + 1] - indptr_[r]; }

  std::span<const int64_t> indptr() const { return indptr_.span(); }
  std::span<const int32_t> indices() const { return indices_.span(); }
  std::span<const float> values() const { return values_.span(); }

  /// In-place value mutation; detaches mapped storage (copy-on-write).
  /// Do not resize through the returned reference.
  std::vector<float>& mutable_values() { return values_.Mutable(); }

  /// True when any array views external (mapped) memory.
  bool is_mapped() const {
    return indptr_.is_view() || indices_.is_view() || values_.is_view();
  }

  /// Sum of values in row r.
  float RowSum(int32_t r) const;

  /// Out-degree (#entries) per row.
  std::vector<int64_t> RowDegrees() const;

  /// Approximate logical footprint in bytes (used by the Table VII
  /// storage accounting); identical for owned and mapped backings.
  size_t MemoryBytes() const;

  /// Heap bytes actually owned by this matrix: equals MemoryBytes() when
  /// owned, ~0 when every array views a mapping.
  size_t OwnedBytes() const {
    return indptr_.OwnedBytes() + indices_.OwnedBytes() +
           values_.OwnedBytes();
  }

  /// True when entry (r, c) exists.
  bool Contains(int32_t r, int32_t c) const;

  /// Full invariant check: monotone indptr with consistent endpoints,
  /// in-range and strictly ascending (hence unique) column indices per
  /// row, and finite values. Every kernel in sparse/ops.cc upholds these
  /// invariants; debug builds assert them after each op, and the
  /// differential test suite asserts them after every kernel call.
  /// FromParts checks only the structural subset (it must stay cheap on
  /// the deserialization path); call this for the full contract.
  Status Validate() const;

  bool operator==(const CsrMatrix& other) const;

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;
  ArrayRef<int64_t> indptr_ = std::vector<int64_t>{0};
  ArrayRef<int32_t> indices_;
  ArrayRef<float> values_;
};

}  // namespace freehgc

#endif  // FREEHGC_SPARSE_CSR_H_
