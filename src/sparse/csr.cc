#include "sparse/csr.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace freehgc {

Result<CsrMatrix> CsrMatrix::FromCoo(int32_t rows, int32_t cols,
                                     std::vector<CooEntry> entries) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  for (const auto& e : entries) {
    if (e.row < 0 || e.row >= rows || e.col < 0 || e.col >= cols) {
      return Status::OutOfRange(
          StrFormat("COO entry (%d, %d) outside %dx%d", e.row, e.col, rows,
                    cols));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<int64_t> indptr(static_cast<size_t>(rows) + 1, 0);
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(entries.size());
  values.reserve(entries.size());
  size_t i = 0;
  for (int32_t r = 0; r < rows; ++r) {
    while (i < entries.size() && entries[i].row == r) {
      // Sum duplicates sharing (row, col).
      const int32_t c = entries[i].col;
      float v = 0.0f;
      while (i < entries.size() && entries[i].row == r &&
             entries[i].col == c) {
        v += entries[i].value;
        ++i;
      }
      indices.push_back(c);
      values.push_back(v);
    }
    indptr[static_cast<size_t>(r) + 1] = static_cast<int64_t>(indices.size());
  }
  CsrMatrix m(rows, cols);
  m.indptr_ = std::move(indptr);
  m.indices_ = std::move(indices);
  m.values_ = std::move(values);
  return m;
}

namespace {

/// Shared structural validation over spans (FromParts and FromView).
/// Branch-free reductions: mapped loads validate multi-GB arrays, so
/// these loops must vectorize instead of branching per element.
Status ValidateParts(int32_t rows, int32_t cols,
                     std::span<const int64_t> indptr,
                     std::span<const int32_t> indices,
                     std::span<const float> values) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  if (indptr.size() != static_cast<size_t>(rows) + 1) {
    return Status::InvalidArgument("indptr size must be rows + 1");
  }
  if (indices.size() != values.size()) {
    return Status::InvalidArgument("indices/values size mismatch");
  }
  if (indptr.front() != 0 ||
      indptr.back() != static_cast<int64_t>(indices.size())) {
    return Status::InvalidArgument("indptr endpoints inconsistent with nnz");
  }
  int64_t decreases = 0;
  for (size_t r = 0; r + 1 < indptr.size(); ++r) {
    decreases += indptr[r] > indptr[r + 1] ? 1 : 0;
  }
  if (decreases != 0) {
    return Status::InvalidArgument("indptr must be non-decreasing");
  }
  int32_t min_col = 0;
  int32_t max_col = -1;
  for (const int32_t c : indices) {
    min_col = std::min(min_col, c);
    max_col = std::max(max_col, c);
  }
  if (min_col < 0 || max_col >= cols) {
    return Status::OutOfRange("column index outside [0, cols)");
  }
  return Status::OK();
}

}  // namespace

Result<CsrMatrix> CsrMatrix::FromParts(int32_t rows, int32_t cols,
                                       std::vector<int64_t> indptr,
                                       std::vector<int32_t> indices,
                                       std::vector<float> values) {
  FREEHGC_RETURN_IF_ERROR(
      ValidateParts(rows, cols, indptr, indices, values));
  CsrMatrix m(rows, cols);
  m.indptr_ = std::move(indptr);
  m.indices_ = std::move(indices);
  m.values_ = std::move(values);
  return m;
}

Result<CsrMatrix> CsrMatrix::FromView(int32_t rows, int32_t cols,
                                      std::span<const int64_t> indptr,
                                      std::span<const int32_t> indices,
                                      std::span<const float> values,
                                      std::shared_ptr<const void> keepalive) {
  FREEHGC_RETURN_IF_ERROR(
      ValidateParts(rows, cols, indptr, indices, values));
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.indptr_ = ArrayRef<int64_t>::View(indptr, keepalive);
  m.indices_ = ArrayRef<int32_t>::View(indices, keepalive);
  m.values_ = ArrayRef<float>::View(values, std::move(keepalive));
  return m;
}

float CsrMatrix::RowSum(int32_t r) const {
  float s = 0.0f;
  for (float v : RowValues(r)) s += v;
  return s;
}

std::vector<int64_t> CsrMatrix::RowDegrees() const {
  std::vector<int64_t> deg(static_cast<size_t>(rows_), 0);
  for (int32_t r = 0; r < rows_; ++r) deg[static_cast<size_t>(r)] = RowNnz(r);
  return deg;
}

size_t CsrMatrix::MemoryBytes() const {
  return indptr_.size() * sizeof(int64_t) +
         indices_.size() * sizeof(int32_t) + values_.size() * sizeof(float);
}

bool CsrMatrix::Contains(int32_t r, int32_t c) const {
  if (r < 0 || r >= rows_) return false;
  auto idx = RowIndices(r);
  return std::binary_search(idx.begin(), idx.end(), c);
}

Status CsrMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  if (indptr_.size() != static_cast<size_t>(rows_) + 1) {
    return Status::InvalidArgument("indptr size must be rows + 1");
  }
  if (indices_.size() != values_.size()) {
    return Status::InvalidArgument("indices/values size mismatch");
  }
  if (indptr_[0] != 0 ||
      indptr_[indptr_.size() - 1] != static_cast<int64_t>(indices_.size())) {
    return Status::InvalidArgument("indptr endpoints inconsistent with nnz");
  }
  for (int32_t r = 0; r < rows_; ++r) {
    const int64_t begin = indptr_[static_cast<size_t>(r)];
    const int64_t end = indptr_[static_cast<size_t>(r) + 1];
    if (begin > end) {
      return Status::InvalidArgument(
          StrFormat("indptr decreases at row %d", r));
    }
    int32_t prev = -1;
    for (int64_t k = begin; k < end; ++k) {
      const int32_t c = indices_[static_cast<size_t>(k)];
      if (c < 0 || c >= cols_) {
        return Status::OutOfRange(
            StrFormat("row %d: column %d outside [0, %d)", r, c, cols_));
      }
      if (c <= prev) {
        return Status::InvalidArgument(StrFormat(
            "row %d: column indices not strictly ascending (%d after %d)", r,
            c, prev));
      }
      prev = c;
      if (!std::isfinite(values_[static_cast<size_t>(k)])) {
        return Status::InvalidArgument(
            StrFormat("row %d: non-finite value at column %d", r, c));
      }
    }
  }
  return Status::OK();
}

bool CsrMatrix::operator==(const CsrMatrix& other) const {
  auto eq = [](auto a, auto b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         eq(indptr(), other.indptr()) && eq(indices(), other.indices()) &&
         eq(values(), other.values());
}

}  // namespace freehgc
