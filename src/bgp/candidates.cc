#include "bgp/candidates.h"

#include <functional>

namespace sparqluo {

void CandidateMap::Set_(VarId v, Set s) {
  if (std::adjacent_find(s.begin(), s.end(), std::greater_equal<TermId>()) !=
      s.end()) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  for (auto& [var, set] : sets_) {
    if (var == v) {
      set = std::move(s);
      return;
    }
  }
  sets_.emplace_back(v, std::move(s));
}

bool BuildCandidateSet(const BindingSet& source, size_t col, double threshold,
                       CandidateMap::Set* out) {
  out->clear();
  // Open addressing over the distinct values seen so far; kUnboundTerm
  // marks an empty slot (an unbound cell ends the build before it is
  // inserted). The table doubles at a quarter load, so a long column of
  // few values keeps a small table and lookups rarely step.
  std::vector<TermId> slots(16, kUnboundTerm);
  int shift = 60;  // 64 - log2(slots.size())
  auto slot_of = [&](TermId v) {
    return static_cast<size_t>((uint64_t{v} * 0x9E3779B97F4A7C15ull) >> shift);
  };
  TermId last = kUnboundTerm;
  for (size_t r = 0; r < source.size(); ++r) {
    const TermId v = source.Row(r)[col];
    if (v == kUnboundTerm) {
      out->clear();
      return false;
    }
    if (v == last) continue;  // runs of one value are common: sorted inputs
    last = v;
    const size_t mask = slots.size() - 1;
    size_t i = slot_of(v);
    while (slots[i] != kUnboundTerm && slots[i] != v) i = (i + 1) & mask;
    if (slots[i] == v) continue;
    if (static_cast<double>(out->size() + 1) > threshold) {
      out->clear();
      return false;
    }
    slots[i] = v;
    out->push_back(v);
    if (out->size() * 4 > slots.size()) {
      slots.assign(slots.size() * 2, kUnboundTerm);
      --shift;
      const size_t grown = slots.size() - 1;
      for (TermId x : *out) {
        size_t j = slot_of(x);
        while (slots[j] != kUnboundTerm) j = (j + 1) & grown;
        slots[j] = x;
      }
    }
  }
  // Values arrive in first-seen order, already ascending when the column
  // is sorted (WCO emits rows in its variable order).
  if (!std::is_sorted(out->begin(), out->end()))
    std::sort(out->begin(), out->end());
  return true;
}

}  // namespace sparqluo
