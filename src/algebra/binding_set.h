// Bag-of-mappings representation (Section 3, SPARQL semantics).
//
// A BindingSet is a bag of mappings µ sharing one variable schema. Columns
// are variables; cells hold TermIds or kUnboundTerm. A variable v is in
// dom(µ) iff its cell is bound — so one BindingSet can hold mappings with
// different domains, as produced by UNION and OPTIONAL.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "sparql/ast.h"

namespace sparqluo {

/// Cell marker for "variable not in dom(µ)".
inline constexpr TermId kUnboundTerm = kInvalidTermId;

/// A bag (multiset) of mappings over a fixed variable schema.
class BindingSet {
 public:
  BindingSet() = default;
  explicit BindingSet(std::vector<VarId> schema) : schema_(std::move(schema)) {}

  const std::vector<VarId>& schema() const { return schema_; }
  size_t width() const { return schema_.size(); }
  size_t size() const { return width() == 0 ? scalar_count_ : cells_.size() / width(); }
  bool empty() const { return size() == 0; }

  /// Column index of `v` in the schema, or SIZE_MAX when absent.
  size_t ColumnOf(VarId v) const;

  /// Appends one mapping; `row` must have width() entries.
  void AppendRow(const std::vector<TermId>& row);

  /// Appends one mapping from width() cells at `row` (unread when width()
  /// is 0).
  void AppendRow(const TermId* row);

  /// Appends every mapping of `other`, which must share this schema exactly
  /// (same variables, same order). This is the deterministic merge step of
  /// morsel-driven evaluation: per-morsel results concatenated in morsel
  /// order reproduce the sequential row order bit for bit.
  void Append(const BindingSet& other);

  /// Appends `count` copies of the empty mapping (only for width() == 0,
  /// e.g. the result of a BGP with no variables that matched).
  void AppendEmptyMappings(size_t count) { scalar_count_ += count; }

  /// Cell accessor.
  TermId At(size_t row, size_t col) const { return cells_[row * width() + col]; }
  void Set(size_t row, size_t col, TermId v) { cells_[row * width() + col] = v; }

  /// Raw row view (width() cells; not dereferenceable when width() is 0).
  const TermId* Row(size_t row) const { return cells_.data() + row * width(); }

  /// Value of variable `v` in mapping `row`; kUnboundTerm if v is not in
  /// the schema or not in dom(µ_row).
  TermId Value(size_t row, VarId v) const {
    size_t c = ColumnOf(v);
    return c == SIZE_MAX ? kUnboundTerm : At(row, c);
  }

  void Reserve(size_t rows) { cells_.reserve(rows * width()); }

  /// A BindingSet holding exactly one empty mapping µ0 (the identity of
  /// join): used as the initial `r` of Algorithm 1.
  static BindingSet Unit() {
    BindingSet b;
    b.scalar_count_ = 1;
    return b;
  }

  /// Projects onto `vars` (keeping bag semantics; duplicates retained).
  BindingSet Project(const std::vector<VarId>& vars) const;

  /// Removes duplicate mappings (DISTINCT).
  BindingSet Distinct() const;

  /// Canonical multiset fingerprint for equality testing: rows rendered over
  /// the union schema, sorted. Two BindingSets are bag-equal iff their
  /// fingerprints (over the same variable order) are equal.
  std::vector<std::vector<TermId>> SortedRows(
      const std::vector<VarId>& var_order) const;

  /// Debug / display rendering.
  std::string ToString(const VarTable& vars, const Dictionary& dict,
                       size_t max_rows = 20) const;

 private:
  friend class RowWriter;

  std::vector<VarId> schema_;
  std::vector<TermId> cells_;
  size_t scalar_count_ = 0;  ///< Row count when width() == 0.
};

/// Builds a BindingSet row by row, each row's cells written in place:
/// Next() hands out the next row's width() cells, and Finish() moves the
/// buffer into the result. Operators emitting many narrow rows use it
/// because BindingSet::AppendRow pays a vector range insert per row,
/// several times the cost of the writes. Capacity grows geometrically, but
/// the buffer is sized (zero-filled) at most a chunk ahead of the rows
/// written, so reserved memory no row reaches is never touched.
class RowWriter {
 public:
  explicit RowWriter(std::vector<VarId> schema) : out_(std::move(schema)) {}

  size_t width() const { return out_.width(); }

  /// Makes room for `rows` rows in all.
  void Reserve(size_t rows) { cells_.reserve(rows * width()); }

  /// The next row's width() cells, every one to be written by the caller
  /// (not dereferenceable when width() is 0: the row then only counts).
  TermId* Next() {
    ++rows_;
    if (used_ + width() > cells_.size()) Grow();
    TermId* row = cells_.data() + used_;
    used_ += width();
    return row;
  }

  /// Appends one row copied from width() cells at `row`.
  void Append(const TermId* row) { std::copy(row, row + width(), Next()); }

  size_t rows() const { return rows_; }

  /// The rows written, as a BindingSet. Call once, last.
  BindingSet Finish() {
    cells_.resize(used_);
    if (width() == 0) out_.scalar_count_ = rows_;
    out_.cells_ = std::move(cells_);
    return std::move(out_);
  }

 private:
  static constexpr size_t kChunkCells = 4096;

  /// Doubles the capacity when full and the written-ahead size up to a
  /// chunk at a time, so a small result stays a small allocation.
  void Grow() {
    const size_t need = used_ + width();
    if (need > cells_.capacity())
      cells_.reserve(std::max({2 * cells_.capacity(), need, 16 * width()}));
    cells_.resize(std::min(cells_.capacity(),
                           need + std::min(cells_.size(), kChunkCells)));
  }

  BindingSet out_;
  std::vector<TermId> cells_;  ///< Cells [0, used_) are written rows.
  size_t used_ = 0;            ///< rows_ * width().
  size_t rows_ = 0;
};

/// True iff the two bags are equal as multisets of mappings (domain-aware:
/// unbound cells compare equal to "absent").
bool BagEquals(const BindingSet& a, const BindingSet& b);

}  // namespace sparqluo
