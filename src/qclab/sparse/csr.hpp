#pragma once

/// \file csr.hpp
/// \brief Compressed-sparse-row complex matrix.
///
/// This module reproduces the substrate MATLAB provides to QCLAB: sparse
/// matrices with Kronecker products and sparse matrix-vector multiplication.
/// QCLAB applies a gate by forming the extended unitary I (x) U' (x) I as a
/// sparse matrix over the full register and multiplying it with the state
/// vector (paper, Section 3.2); SparseKronBackend is built on this class.

#include <algorithm>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/sim/parallel.hpp"
#include "qclab/util/errors.hpp"

namespace qclab::sparse {

/// One (row, col, value) entry used to assemble a CSR matrix.
template <typename T>
struct Triplet {
  std::size_t row;
  std::size_t col;
  std::complex<T> value;
};

template <typename T>
class CsrMatrix {
 public:
  using value_type = std::complex<T>;

  /// Empty 0x0 matrix.
  CsrMatrix() : rowPtr_(1, 0) {}

  /// Zero matrix of the given shape.
  CsrMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), rowPtr_(rows + 1, 0) {}

  /// Builds from triplets (duplicates are summed).
  static CsrMatrix fromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet<T>> triplets) {
    for (const auto& t : triplets) {
      util::require(t.row < rows && t.col < cols, "triplet out of bounds");
    }
    // Counting sort by row, then order columns within each row.
    CsrMatrix m(rows, cols);
    std::vector<std::size_t> counts(rows, 0);
    for (const auto& t : triplets) ++counts[t.row];
    for (std::size_t r = 0; r < rows; ++r)
      m.rowPtr_[r + 1] = m.rowPtr_[r] + counts[r];
    std::vector<std::size_t> cursor(m.rowPtr_.begin(), m.rowPtr_.end() - 1);
    m.colInd_.resize(triplets.size());
    m.values_.resize(triplets.size());
    for (const auto& t : triplets) {
      const std::size_t slot = cursor[t.row]++;
      m.colInd_[slot] = t.col;
      m.values_[slot] = t.value;
    }
    m.sortRowsAndCompress();
    return m;
  }

  /// n x n sparse identity.
  static CsrMatrix identity(std::size_t n) {
    CsrMatrix m(n, n);
    m.colInd_.resize(n);
    m.values_.assign(n, value_type(1));
    for (std::size_t i = 0; i < n; ++i) {
      m.rowPtr_[i + 1] = i + 1;
      m.colInd_[i] = i;
    }
    return m;
  }

  /// Converts a dense matrix, dropping exact zeros.
  static CsrMatrix fromDense(const dense::Matrix<T>& d) {
    std::vector<Triplet<T>> triplets;
    for (std::size_t i = 0; i < d.rows(); ++i) {
      for (std::size_t j = 0; j < d.cols(); ++j) {
        if (d(i, j) != value_type(0)) triplets.push_back({i, j, d(i, j)});
      }
    }
    return fromTriplets(d.rows(), d.cols(), std::move(triplets));
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return values_.size(); }

  const std::vector<std::size_t>& rowPtr() const noexcept { return rowPtr_; }
  const std::vector<std::size_t>& colInd() const noexcept { return colInd_; }
  const std::vector<value_type>& values() const noexcept { return values_; }

  /// Entry lookup (binary search within the row); zero if not stored.
  value_type at(std::size_t row, std::size_t col) const {
    util::require(row < rows_ && col < cols_, "index out of bounds");
    std::size_t lo = rowPtr_[row], hi = rowPtr_[row + 1];
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (colInd_[mid] < col) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < rowPtr_[row + 1] && colInd_[lo] == col) return values_[lo];
    return value_type(0);
  }

  /// Sparse matrix-vector product y = A x (OpenMP-parallel over rows).
  std::vector<value_type> apply(const std::vector<value_type>& x) const {
    util::require(x.size() == cols_, "spmv dimension mismatch");
    std::vector<value_type> y(rows_);
    const std::int64_t n = static_cast<std::int64_t>(rows_);
    const std::size_t* const starts = rowPtr_.data();
    const std::size_t* const columns = colInd_.data();
    const value_type* const entries = values_.data();
    const value_type* const in = x.data();
    value_type* const out = y.data();
    // Forks above sim::kOmpThreshold rows.
    sim::parallelFor(n, n, sim::kOmpThreshold + 1, [=](std::int64_t i) {
      value_type sum(0);
      for (std::size_t k = starts[i]; k < starts[i + 1]; ++k) {
        sum += entries[k] * in[columns[k]];
      }
      out[i] = sum;
    });
    return y;
  }

  /// Sparse-sparse product C = A B (row-by-row merge with a dense scatter
  /// workspace).
  friend CsrMatrix operator*(const CsrMatrix& a, const CsrMatrix& b) {
    util::require(a.cols_ == b.rows_, "spgemm dimension mismatch");
    CsrMatrix c(a.rows_, b.cols_);
    std::vector<value_type> accumulator(b.cols_, value_type(0));
    std::vector<std::size_t> touched;
    for (std::size_t i = 0; i < a.rows_; ++i) {
      touched.clear();
      for (std::size_t ka = a.rowPtr_[i]; ka < a.rowPtr_[i + 1]; ++ka) {
        const value_type aik = a.values_[ka];
        const std::size_t k = a.colInd_[ka];
        for (std::size_t kb = b.rowPtr_[k]; kb < b.rowPtr_[k + 1]; ++kb) {
          const std::size_t j = b.colInd_[kb];
          if (accumulator[j] == value_type(0)) touched.push_back(j);
          accumulator[j] += aik * b.values_[kb];
        }
      }
      std::sort(touched.begin(), touched.end());
      for (std::size_t j : touched) {
        if (accumulator[j] != value_type(0)) {
          c.colInd_.push_back(j);
          c.values_.push_back(accumulator[j]);
        }
        accumulator[j] = value_type(0);
      }
      c.rowPtr_[i + 1] = c.colInd_.size();
    }
    return c;
  }

  /// Kronecker product of two sparse matrices (the core of QCLAB's
  /// I (x) U' (x) I construction).
  friend CsrMatrix kron(const CsrMatrix& a, const CsrMatrix& b) {
    CsrMatrix k(a.rows_ * b.rows_, a.cols_ * b.cols_);
    k.colInd_.reserve(a.nnz() * b.nnz());
    k.values_.reserve(a.nnz() * b.nnz());
    for (std::size_t ia = 0; ia < a.rows_; ++ia) {
      for (std::size_t ib = 0; ib < b.rows_; ++ib) {
        const std::size_t row = ia * b.rows_ + ib;
        for (std::size_t ka = a.rowPtr_[ia]; ka < a.rowPtr_[ia + 1]; ++ka) {
          const value_type av = a.values_[ka];
          const std::size_t acol = a.colInd_[ka];
          for (std::size_t kb = b.rowPtr_[ib]; kb < b.rowPtr_[ib + 1]; ++kb) {
            k.colInd_.push_back(acol * b.cols_ + b.colInd_[kb]);
            k.values_.push_back(av * b.values_[kb]);
          }
        }
        k.rowPtr_[row + 1] = k.colInd_.size();
      }
    }
    return k;
  }

  /// Dense conversion (small matrices / tests only).
  dense::Matrix<T> toDense() const {
    dense::Matrix<T> d(rows_, cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t k = rowPtr_[i]; k < rowPtr_[i + 1]; ++k) {
        d(i, colInd_[k]) += values_[k];
      }
    }
    return d;
  }

 private:
  /// Sorts column indices within each row and merges duplicate entries.
  void sortRowsAndCompress() {
    std::vector<std::size_t> newRowPtr(rows_ + 1, 0);
    std::vector<std::size_t> newCol;
    std::vector<value_type> newVal;
    newCol.reserve(colInd_.size());
    newVal.reserve(values_.size());
    std::vector<std::pair<std::size_t, value_type>> row;
    for (std::size_t i = 0; i < rows_; ++i) {
      row.clear();
      for (std::size_t k = rowPtr_[i]; k < rowPtr_[i + 1]; ++k) {
        row.emplace_back(colInd_[k], values_[k]);
      }
      std::sort(row.begin(), row.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      const std::size_t rowStart = newCol.size();
      for (const auto& [col, value] : row) {
        if (newCol.size() > rowStart && newCol.back() == col) {
          newVal.back() += value;  // merge duplicate entry
        } else {
          newCol.push_back(col);
          newVal.push_back(value);
        }
      }
      newRowPtr[i + 1] = newCol.size();
    }
    rowPtr_ = std::move(newRowPtr);
    colInd_ = std::move(newCol);
    values_ = std::move(newVal);
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::size_t> colInd_;
  std::vector<value_type> values_;
};

}  // namespace qclab::sparse
