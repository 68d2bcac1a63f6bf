// Per-variable candidate sets for the candidate pruning optimization (§6).
//
// A candidate set is the sorted, duplicate-free list of term ids a variable
// may still take, built from one column of the current bindings
// (BuildCandidateSet). The sorted form is what the BGP engines consume:
// WCO extension intersects each adjacency list with it by galloping,
// candidate seeding and range copy walk it in order, and scans test
// membership through a CandidateCursor, which gallops forward across
// ascending probes. A BGP has a handful of variables, so the map is a
// short vector of (variable, set) pairs.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "algebra/binding_set.h"
#include "rdf/term.h"
#include "sparql/ast.h"

namespace sparqluo {

/// Maps a variable to the set of term ids it may still take. A variable
/// absent from the map is unconstrained.
class CandidateMap {
 public:
  /// Ascending, duplicate-free.
  using Set = std::vector<TermId>;

  bool Has(VarId v) const { return Get(v) != nullptr; }

  const Set* Get(VarId v) const {
    for (const auto& [var, set] : sets_)
      if (var == v) return &set;
    return nullptr;
  }

  /// Installs (replacing) the candidate set for `v`; `s` is sorted and
  /// deduplicated here unless it already is.
  void Set_(VarId v, Set s);

  /// True iff `id` is in the sorted set `s`.
  static bool Contains(const Set& s, TermId id) {
    return std::binary_search(s.begin(), s.end(), id);
  }

  /// True iff `v` is unconstrained or `id` is among its candidates.
  bool Admits(VarId v, TermId id) const {
    const Set* s = Get(v);
    return s == nullptr || Contains(*s, id);
  }

  bool empty() const { return sets_.empty(); }
  size_t size() const { return sets_.size(); }

  const std::vector<std::pair<VarId, Set>>& sets() const { return sets_; }

 private:
  std::vector<std::pair<VarId, Set>> sets_;
};

/// Builds the candidate set of column `col` of `source` into `out`: its
/// distinct values, sorted. The column is usable iff it has no unbound cell
/// and at most `threshold` distinct values; otherwise this returns false
/// (with `out` empty) as soon as it meets an unbound cell or the first
/// distinct value past the threshold. Values are deduplicated through a
/// flat open-addressing table, so only the distinct survivors are sorted.
bool BuildCandidateSet(const BindingSet& source, size_t col, double threshold,
                       CandidateMap::Set* out);

/// Membership tests of a stream of probes against one candidate set. A
/// probe no smaller than the previous one gallops forward from where that
/// one stopped, so probes in ascending order (index ranges, mostly) cost
/// O(log gap) each; a smaller probe starts over with a binary search.
class CandidateCursor {
 public:
  explicit CandidateCursor(const CandidateMap::Set& set)
      : data_(set.data()), size_(set.size()) {}

  bool Contains(TermId v) {
    if (pos_ > 0 && data_[pos_ - 1] >= v) {
      pos_ = std::lower_bound(data_, data_ + pos_, v) - data_;
    } else if (pos_ < size_ && data_[pos_] < v) {
      // data_[lo] < v: double the stride until data_[hi] >= v (or the
      // end), then binary-search (lo, hi] for the first element >= v.
      size_t lo = pos_, step = 1, hi = pos_ + 1;
      while (hi < size_ && data_[hi] < v) {
        lo = hi;
        step <<= 1;
        hi = lo + step;
      }
      hi = std::min(hi, size_);
      pos_ = std::lower_bound(data_ + lo + 1, data_ + hi, v) - data_;
    }
    return pos_ < size_ && data_[pos_] == v;
  }

 private:
  const TermId* data_;
  size_t size_;
  size_t pos_ = 0;  ///< First element >= the previous probe.
};

}  // namespace sparqluo
