// ColumnBatch: a column-oriented view over a slice of rows.
//
// The vectorized execution path (ROADMAP "columnar batch execution")
// slices every map split / operator input into batches of kBatchRows
// rows and pivots each referenced column into a typed vector —
// Int64/Double/String with a null byte-mask — so the filter/project/
// aggregate kernels in exec/vector_kernels.h can run type-specialized
// loops instead of per-row std::variant dispatch. Columns whose cells
// mix physical numeric types (an int in one row, a double in the next)
// demote to Mixed and force the row-at-a-time fallback for any
// expression that touches them, keeping the batch path lossless.
//
// The pivot is lazy and cached: column(c) materializes column c on
// first use, so an expression touching 2 of 16 columns never pays for
// the other 14. String cells and Mixed cells are borrowed by pointer
// from the source rows (the batch never outlives its input span), so
// round-tripping a Row through a batch is exact — bit patterns of
// doubles (NaN payloads, -0.0), int64s beyond 2^53 and embedded-NUL
// strings all survive (pinned by tests/test_exec_batch.cpp).
//
// This is the only map path: the engine feeds every split to its mapper
// as batches. The row-at-a-time references it must match cell-for-cell
// are BoundExpr::eval per row and PreparedFilterProject::run_row
// (pinned by tests/test_exec_batch.cpp); refdb checks whole queries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/value.h"

namespace ysmart {

/// Borrowed read-only rows, either contiguous (a table, a stage's output)
/// or gathered by pointer (the shuffled values one reduce consumer sees,
/// scattered across a key group's KeyValues). Never owns; the rows must
/// outlive the view.
class RowRefs {
 public:
  RowRefs() = default;
  RowRefs(std::span<const Row> rows) : rows_(rows.data()), n_(rows.size()) {}
  RowRefs(const std::vector<Row>& rows) : RowRefs(std::span<const Row>(rows)) {}
  RowRefs(std::span<const Row* const> ptrs)
      : ptrs_(ptrs.data()), n_(ptrs.size()) {}
  RowRefs(const std::vector<const Row*>& ptrs)
      : RowRefs(std::span<const Row* const>(ptrs)) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const Row& operator[](std::size_t i) const {
    return ptrs_ ? *ptrs_[i] : rows_[i];
  }
  RowRefs subspan(std::size_t offset, std::size_t count) const {
    RowRefs r = *this;
    if (ptrs_)
      r.ptrs_ += offset;
    else
      r.rows_ += offset;
    r.n_ = count;
    return r;
  }

 private:
  const Row* rows_ = nullptr;
  const Row* const* ptrs_ = nullptr;
  std::size_t n_ = 0;
};

/// Physical type of one batch column. Null = every cell NULL (type never
/// fixed); Mixed = conflicting non-null cell types, kernels fall back.
enum class ColType { Null, Int64, Double, String, Mixed };

class ColumnVector {
 public:
  ColType type() const { return type_; }
  std::size_t size() const { return size_; }

  bool has_nulls() const { return !nulls_.empty(); }
  bool is_null(std::size_t i) const { return !nulls_.empty() && nulls_[i]; }
  /// Null byte-mask (1 = NULL), or nullptr when no cell is NULL.
  const unsigned char* null_data() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  /// Typed storage; valid only for the matching type(). NULL slots hold
  /// placeholders (0 / 0.0 / a pointer to an empty string).
  const std::int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return dbls_.data(); }
  const std::string* const* str_data() const { return strs_.data(); }
  const std::string& str_at(std::size_t i) const { return *strs_[i]; }
  const Value& mixed_at(std::size_t i) const { return *mixed_[i]; }

  /// Lossless reconstruction of the original cell.
  Value value_at(std::size_t i) const;

 private:
  friend class ColumnBatch;
  ColType type_ = ColType::Null;
  std::size_t size_ = 0;
  std::vector<unsigned char> nulls_;  // non-empty iff any cell is NULL
  std::vector<std::int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<const std::string*> strs_;  // borrowed from the source rows
  std::vector<const Value*> mixed_;       // borrowed from the source rows
};

class ColumnBatch {
 public:
  /// Rows per batch on the engine's map path and in the chunked
  /// operators. Large enough to amortize per-batch dispatch, small
  /// enough that a handful of materialized columns stay cache-resident.
  static constexpr std::size_t kBatchRows = 1024;

  /// View over `rows` (not owned; must outlive the batch).
  explicit ColumnBatch(RowRefs rows);
  /// View over `rows[sel[0]], rows[sel[1]], ...` — the compacted form
  /// the kernels use to evaluate projections on filter survivors only.
  ColumnBatch(RowRefs rows, std::vector<std::uint32_t> sel);

  std::size_t rows() const { return has_sel_ ? sel_.size() : rows_.size(); }
  std::size_t columns() const { return num_cols_; }
  /// False when the rows disagree on arity; kernels then fall back.
  bool regular() const { return regular_; }

  /// The underlying source row for batch position `i`.
  const Row& source_row(std::size_t i) const {
    return rows_[has_sel_ ? sel_[i] : i];
  }

  /// Column `c`, pivoted on first use and cached. Requires regular().
  const ColumnVector& column(std::size_t c);

  /// A sub-batch over positions `local[0], local[1], ...` of this batch
  /// (selections compose). Shares the source rows, not the columns.
  ColumnBatch select(const std::vector<std::uint32_t>& local) const;

  /// Reconstruct row `i` from the pivoted columns alone — no reads from
  /// the source rows. Exists for the round-trip property tests.
  Row materialize_row(std::size_t i);

 private:
  void pivot_one(std::size_t c);

  RowRefs rows_;
  std::vector<std::uint32_t> sel_;
  bool has_sel_ = false;
  std::size_t num_cols_ = 0;
  bool regular_ = true;
  std::vector<std::unique_ptr<ColumnVector>> cols_;
};

}  // namespace ysmart
