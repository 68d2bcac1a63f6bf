#include "algebra/binding_set.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace sparqluo {

size_t BindingSet::ColumnOf(VarId v) const {
  for (size_t i = 0; i < schema_.size(); ++i)
    if (schema_[i] == v) return i;
  return SIZE_MAX;
}

void BindingSet::AppendRow(const std::vector<TermId>& row) {
  assert(row.size() == width());
  AppendRow(row.data());
}

void BindingSet::AppendRow(const TermId* row) {
  if (width() == 0) {
    ++scalar_count_;
    return;
  }
  cells_.insert(cells_.end(), row, row + width());
}

void BindingSet::Append(const BindingSet& other) {
  assert(schema_ == other.schema_ && "Append requires identical schemas");
  if (width() == 0) {
    scalar_count_ += other.scalar_count_;
    return;
  }
  cells_.insert(cells_.end(), other.cells_.begin(), other.cells_.end());
}

BindingSet BindingSet::Project(const std::vector<VarId>& vars) const {
  std::vector<size_t> cols;
  cols.reserve(vars.size());
  for (VarId v : vars) cols.push_back(ColumnOf(v));
  RowWriter out(vars);
  out.Reserve(size());
  for (size_t r = 0; r < size(); ++r) {
    TermId* row = out.Next();
    for (size_t i = 0; i < cols.size(); ++i)
      row[i] = cols[i] == SIZE_MAX ? kUnboundTerm : At(r, cols[i]);
  }
  return out.Finish();
}

BindingSet BindingSet::Distinct() const {
  BindingSet out(schema_);
  if (width() == 0) {
    out.scalar_count_ = std::min<size_t>(scalar_count_, 1);
    return out;
  }
  std::set<std::vector<TermId>> seen;
  std::vector<TermId> row(width());
  for (size_t r = 0; r < size(); ++r) {
    row.assign(Row(r), Row(r) + width());
    if (seen.insert(row).second) out.AppendRow(row);
  }
  return out;
}

std::vector<std::vector<TermId>> BindingSet::SortedRows(
    const std::vector<VarId>& var_order) const {
  std::vector<std::vector<TermId>> rows;
  rows.reserve(size());
  std::vector<size_t> cols;
  cols.reserve(var_order.size());
  for (VarId v : var_order) cols.push_back(ColumnOf(v));
  for (size_t r = 0; r < size(); ++r) {
    std::vector<TermId> row(var_order.size());
    for (size_t i = 0; i < cols.size(); ++i)
      row[i] = cols[i] == SIZE_MAX ? kUnboundTerm : At(r, cols[i]);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string BindingSet::ToString(const VarTable& vars, const Dictionary& dict,
                                 size_t max_rows) const {
  std::ostringstream out;
  for (size_t i = 0; i < schema_.size(); ++i)
    out << (i ? "\t" : "") << "?" << vars.Name(schema_[i]);
  out << "\n";
  size_t n = std::min(size(), max_rows);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width(); ++c)
      out << (c ? "\t" : "") << dict.ToString(At(r, c));
    out << "\n";
  }
  if (size() > n) out << "... (" << size() << " rows total)\n";
  return out.str();
}

bool BagEquals(const BindingSet& a, const BindingSet& b) {
  // Compare over the union of both schemas so that a column that is entirely
  // absent on one side must be entirely unbound on the other.
  std::vector<VarId> order = a.schema();
  for (VarId v : b.schema())
    if (std::find(order.begin(), order.end(), v) == order.end())
      order.push_back(v);
  return a.SortedRows(order) == b.SortedRows(order);
}

}  // namespace sparqluo
