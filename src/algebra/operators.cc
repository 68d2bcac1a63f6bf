#include "algebra/operators.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>

namespace sparqluo {

namespace internal {

bool RowsCompatible(const TermId* ra, const TermId* rb,
                    const std::vector<std::pair<size_t, size_t>>& cols) {
  for (const auto& [ca, cb] : cols) {
    TermId va = ra[ca];
    TermId vb = rb[cb];
    if (va != kUnboundTerm && vb != kUnboundTerm && va != vb) return false;
  }
  return true;
}

}  // namespace internal

namespace {

/// Shared machinery for Join / LeftOuterJoin / Minus: finds, for each row of
/// the probe side `a`, the compatible rows of the build side `b`.
///
/// One CSR table indexes b's rows [b_begin, b_end). Rows whose join-key
/// cells are all bound are grouped by key: an open-addressing directory,
/// hashed straight from the row cells, maps each distinct key to a bucket,
/// and bucket k's rows are rows_[offsets_[k], offsets_[k + 1]) in ascending
/// row order. Rows with an unbound key cell can match several keys; they
/// are kept apart in `partial_`, in row order. A probe hashes its own row's
/// cells and compares them with the bucket's first row, so it allocates
/// nothing.
///
/// Order contract: a probe row whose key is fully bound sees its bucket's
/// rows ascending, then the compatible partial rows ascending; a probe row
/// with an unbound key cell sees every compatible row of the range
/// ascending. An explicit [b_begin, b_end) is how a fanned-out Join shards
/// one build across workers; reported row indices are absolute either way.
class CompatFinder {
 public:
  CompatFinder(const BindingSet& a, const BindingSet& b, size_t b_begin = 0,
               size_t b_end = SIZE_MAX)
      : a_(a), b_(b), b_begin_(b_begin), b_end_(std::min(b_end, b.size())) {
    for (size_t i = 0; i < a.schema().size(); ++i) {
      size_t j = b.ColumnOf(a.schema()[i]);
      if (j != SIZE_MAX) {
        common_.emplace_back(i, j);
        probe_cols_.push_back(i);
        build_cols_.push_back(j);
      }
    }
    if (common_.empty() || b.width() == 0 || b_begin_ >= b_end_) return;
    if (b_end_ > kNone)
      throw std::length_error("join build side exceeds 2^32 - 1 rows");
    Build();
  }

  bool has_common() const { return !common_.empty(); }

  /// Calls `fn(rb)` for every b-row compatible with a-row `ra_idx`, in the
  /// order of the contract above.
  template <typename Fn>
  void ForEachCompatible(size_t ra_idx, Fn&& fn) const {
    if (common_.empty()) {
      for (size_t r = b_begin_; r < b_end_; ++r) fn(r);
      return;
    }
    const TermId* ra = a_.Row(ra_idx);
    uint32_t hash;
    if (!HashKey(ra, probe_cols_, &hash)) {
      for (size_t r = b_begin_; r < b_end_; ++r) {
        if (internal::RowsCompatible(ra, b_.Row(r), common_)) fn(r);
      }
      return;
    }
    const uint32_t bucket = Find(hash, ra, probe_cols_);
    if (bucket != kNone) {
      for (uint32_t i = offsets_[bucket]; i < offsets_[bucket + 1]; ++i)
        fn(rows_[i]);
    }
    // With one key column a partial row's only key cell is unbound, so it
    // is compatible with every probe.
    for (uint32_t r : partial_) {
      if (common_.size() == 1 ||
          internal::RowsCompatible(ra, b_.Row(r), common_))
        fn(r);
    }
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One directory slot: the key's hash and its bucket (kNone when empty).
  /// The hash of a one-column key is a bijection of the key, so there an
  /// equal hash means an equal key.
  struct Slot {
    uint32_t hash = 0;
    uint32_t bucket = kNone;
  };

  /// Hashes the key cells of `row` (read through `cols`) into `*hash`;
  /// false when one of them is unbound. Multiply-xorshift: each step is
  /// invertible, so a one-cell key hashes without collisions.
  static bool HashKey(const TermId* row, const std::vector<size_t>& cols,
                      uint32_t* hash) {
    uint32_t h = 0;
    bool bound = true;
    for (size_t c : cols) {
      const TermId v = row[c];
      bound &= v != kUnboundTerm;
      h = (h ^ v) * 0x9E3779B1u;
      h ^= h >> 15;
    }
    *hash = h;
    return bound;
  }

  size_t SlotOf(uint32_t hash) const {
    return (static_cast<size_t>(hash) * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  bool SameKey(uint32_t bucket, const TermId* row,
               const std::vector<size_t>& cols) const {
    if (cols.size() == 1) return true;
    const TermId* rep = b_.Row(reps_[bucket]);
    for (size_t k = 0; k < cols.size(); ++k)
      if (rep[build_cols_[k]] != row[cols[k]]) return false;
    return true;
  }

  /// The bucket of the key of `row` (read through `cols`), or kNone.
  uint32_t Find(uint32_t hash, const TermId* row,
                const std::vector<size_t>& cols) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.bucket == kNone) return kNone;
      if (s.hash == hash && SameKey(s.bucket, row, cols)) return s.bucket;
    }
  }

  /// Resizes the directory to `capacity` slots (a power of two) and
  /// reinserts every bucket.
  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    const size_t mask = capacity - 1;
    for (const Slot& s : old) {
      if (s.bucket == kNone) continue;
      size_t i = SlotOf(s.hash);
      while (slots_[i].bucket != kNone) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  /// Counts the rows of each key's bucket, takes the prefix sum and fills
  /// rows_ back to front, so each bucket lists its rows ascending.
  void Build() {
    const size_t n = b_end_ - b_begin_;
    std::vector<uint32_t> row_bucket(n, kNone);
    Rehash(16);
    for (size_t i = 0; i < n; ++i) {
      const TermId* row = b_.Row(b_begin_ + i);
      uint32_t hash;
      if (!HashKey(row, build_cols_, &hash)) {
        partial_.push_back(static_cast<uint32_t>(b_begin_ + i));
        continue;
      }
      const size_t mask = slots_.size() - 1;
      size_t s = SlotOf(hash);
      while (slots_[s].bucket != kNone &&
             !(slots_[s].hash == hash &&
               SameKey(slots_[s].bucket, row, build_cols_)))
        s = (s + 1) & mask;
      uint32_t bucket = slots_[s].bucket;
      if (bucket == kNone) {
        bucket = static_cast<uint32_t>(reps_.size());
        slots_[s] = Slot{hash, bucket};
        reps_.push_back(static_cast<uint32_t>(b_begin_ + i));
        offsets_.push_back(0);
        if (reps_.size() * 4 > slots_.size()) Rehash(slots_.size() * 2);
      }
      row_bucket[i] = bucket;
      ++offsets_[bucket];
    }
    // offsets_[k] = one past bucket k's last row; filling back to front
    // moves it to bucket k's first row.
    for (size_t k = 1; k < offsets_.size(); ++k) offsets_[k] += offsets_[k - 1];
    const uint32_t total = offsets_.empty() ? 0 : offsets_.back();
    rows_.resize(total);
    for (size_t i = n; i-- > 0;) {
      if (row_bucket[i] != kNone)
        rows_[--offsets_[row_bucket[i]]] = static_cast<uint32_t>(b_begin_ + i);
    }
    offsets_.push_back(total);
  }

  const BindingSet& a_;
  const BindingSet& b_;
  size_t b_begin_;
  size_t b_end_;
  std::vector<std::pair<size_t, size_t>> common_;
  std::vector<size_t> probe_cols_;  ///< common_[k].first
  std::vector<size_t> build_cols_;  ///< common_[k].second
  /// Directory: a power-of-two size at most a quarter full, since most
  /// probes of a selective join miss and a miss ends at the first empty
  /// slot; sparse slots keep that branch predictable.
  std::vector<Slot> slots_;
  int shift_ = 64;                  ///< 64 - log2(slots_.size()).
  std::vector<uint32_t> reps_;      ///< First row of each bucket.
  std::vector<uint32_t> offsets_;   ///< Bucket k = rows_[offsets_[k], [k+1]).
  std::vector<uint32_t> rows_;      ///< Keyed rows, grouped by bucket.
  std::vector<uint32_t> partial_;   ///< Rows with an unbound key cell.
};

/// Output schema of a join: a's schema followed by b's extra variables.
std::vector<VarId> MergedSchema(const BindingSet& a, const BindingSet& b) {
  std::vector<VarId> schema = a.schema();
  for (VarId v : b.schema())
    if (a.ColumnOf(v) == SIZE_MAX) schema.push_back(v);
  return schema;
}

std::vector<std::pair<size_t, size_t>> CommonCols(const BindingSet& a,
                                                  const BindingSet& b) {
  std::vector<std::pair<size_t, size_t>> common;
  for (size_t i = 0; i < a.schema().size(); ++i) {
    size_t j = b.ColumnOf(a.schema()[i]);
    if (j != SIZE_MAX) common.emplace_back(i, j);
  }
  return common;
}

std::vector<size_t> ExtraCols(const BindingSet& a, const BindingSet& b) {
  std::vector<size_t> cols;
  for (size_t j = 0; j < b.schema().size(); ++j)
    if (a.ColumnOf(b.schema()[j]) == SIZE_MAX) cols.push_back(j);
  return cols;
}

/// Writes µ1 ∪ µ2 as the next row of `out`: a's row copied whole, its
/// unbound shared cells filled from b, then b's extra cells.
void WriteMerged(const TermId* ra, size_t aw, const TermId* rb,
                 const std::vector<std::pair<size_t, size_t>>& common,
                 const std::vector<size_t>& extra, RowWriter* out) {
  TermId* row = out->Next();
  std::copy(ra, ra + aw, row);
  for (const auto& [ca, cb] : common)
    if (row[ca] == kUnboundTerm) row[ca] = rb[cb];
  TermId* dst = row + aw;
  for (size_t c : extra) *dst++ = rb[c];
}

/// Writes µ1 alone as the next row of `out`: a's row, then b's extra
/// columns unbound.
void WritePadded(const TermId* ra, size_t aw, RowWriter* out) {
  TermId* row = out->Next();
  std::copy(ra, ra + aw, row);
  std::fill(row + aw, row + out->width(), kUnboundTerm);
}

}  // namespace

BindingSet Join(const BindingSet& a, const BindingSet& b,
                const CancelToken* cancel, const ParallelSpec& spec,
                uint64_t* morsels) {
  CancelCheckpoint chk(cancel);
  RowWriter out(MergedSchema(a, b));
  if (a.empty() || b.empty()) return out.Finish();
  if (out.width() == 0) {
    // Join of zero-width bags: |a| * |b| empty mappings.
    BindingSet empty = out.Finish();
    empty.AppendEmptyMappings(a.size() * b.size());
    return empty;
  }
  // Degenerate widths: a zero-width side contributes only multiplicity,
  // and the other side's rows are the output rows.
  if (a.width() == 0 || b.width() == 0) {
    for (size_t ra = 0; ra < a.size(); ++ra)
      for (size_t rb = 0; rb < b.size(); ++rb) {
        chk.Poll();
        out.Append(a.width() == 0 ? b.Row(rb) : a.Row(ra));
      }
    return out.Finish();
  }
  // Hash the smaller side (the build), stream the larger: either
  // orientation yields the same bag, and the rule fixes the row order.
  const bool stream_is_b = a.size() <= b.size();
  const BindingSet& stream = stream_is_b ? b : a;
  const BindingSet& build = stream_is_b ? a : b;
  const std::vector<std::pair<size_t, size_t>> common = CommonCols(a, b);
  const std::vector<size_t> extra = ExtraCols(a, b);

  // One shard and one morsel unless the spec allows fanning out and the
  // inputs exceed a morsel. The build side is then sharded into
  // contiguous row slices, each indexed by its own CompatFinder. A probe
  // walks the shards in slice order, so matches surface in ascending
  // build-row order — exactly the single-finder bucket order — as long as
  // no build row carries an unbound join-key cell (those are emitted after
  // bucket matches, which sharding would interleave); that case keeps one
  // shard. The streamed side is probed in morsels whose outputs
  // concatenate in morsel order, reproducing the one-morsel probe order.
  const bool fan_out =
      spec.enabled() && a.size() + b.size() > spec.morsel_size;
  size_t num_shards = 1;
  size_t num_morsels = 1;
  if (fan_out) {
    bool build_has_unbound = false;
    for (size_t r = 0; r < build.size() && !build_has_unbound; ++r) {
      const TermId* row = build.Row(r);
      for (const auto& [ca, cb] : common) {
        if (row[stream_is_b ? ca : cb] == kUnboundTerm) {
          build_has_unbound = true;
          break;
        }
      }
    }
    if (!build_has_unbound)
      num_shards = std::max<size_t>(
          1, std::min(spec.EffectiveWorkers(), spec.MorselCount(build.size())));
    num_morsels = spec.MorselCount(stream.size());
    // A one-morsel probe runs inline (and then the build is one shard too,
    // being the smaller side): only a split probe issues tasks.
    if (morsels != nullptr && num_morsels > 1)
      *morsels += num_morsels + (num_shards > 1 ? num_shards : 0);
  }

  const size_t shard_rows = (build.size() + num_shards - 1) / num_shards;
  std::vector<std::optional<CompatFinder>> shards(num_shards);
  auto build_shard = [&](size_t i) {
    size_t begin = i * shard_rows;
    size_t end = std::min(begin + shard_rows, build.size());
    shards[i].emplace(stream, build, begin, end);
  };
  // Writes the joins of streamed rows [begin, end) into `dst`.
  auto probe = [&](size_t begin, size_t end, CancelCheckpoint& poll,
                   RowWriter* dst) {
    for (size_t si = begin; si < end; ++si) {
      poll.Poll();
      const TermId* rs = stream.Row(si);
      for (const auto& shard : shards) {
        shard->ForEachCompatible(si, [&](size_t bi) {
          poll.Poll();
          const TermId* rt = build.Row(bi);
          WriteMerged(stream_is_b ? rt : rs, a.width(), stream_is_b ? rs : rt,
                      common, extra, dst);
        });
      }
    }
  };

  if (num_shards == 1) {
    build_shard(0);
  } else {
    spec.pool->ParallelFor(num_shards, spec.EffectiveWorkers(), build_shard);
  }
  if (num_morsels == 1) {
    // A cross product has at least as many rows as its larger side.
    if (common.empty()) out.Reserve(stream.size());
    probe(0, stream.size(), chk, &out);
    return out.Finish();
  }

  const size_t morsel_rows = (stream.size() + num_morsels - 1) / num_morsels;
  const std::vector<VarId> schema = MergedSchema(a, b);
  std::vector<BindingSet> outs(num_morsels);
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    CancelCheckpoint morsel_chk(cancel);
    RowWriter morsel_out(schema);
    size_t begin = m * morsel_rows;
    size_t end = std::min(begin + morsel_rows, stream.size());
    probe(begin, end, morsel_chk, &morsel_out);
    outs[m] = morsel_out.Finish();
  });
  BindingSet result = out.Finish();
  size_t total = 0;
  for (const BindingSet& o : outs) total += o.size();
  result.Reserve(total);
  for (const BindingSet& o : outs) result.Append(o);
  return result;
}

BindingSet UnionBag(const BindingSet& a, const BindingSet& b) {
  std::vector<VarId> schema = MergedSchema(a, b);
  std::vector<size_t> b_cols(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) b_cols[c] = b.ColumnOf(schema[c]);
  RowWriter out(std::move(schema));
  out.Reserve(a.size() + b.size());
  // a's columns lead the union schema: copy each a-row whole and leave b's
  // extra columns unbound.
  for (size_t r = 0; r < a.size(); ++r) WritePadded(a.Row(r), a.width(), &out);
  for (size_t r = 0; r < b.size(); ++r) {
    const TermId* rb = b.Row(r);
    TermId* row = out.Next();
    for (size_t c = 0; c < out.width(); ++c)
      row[c] = b_cols[c] == SIZE_MAX ? kUnboundTerm : rb[b_cols[c]];
  }
  return out.Finish();
}

BindingSet Minus(const BindingSet& a, const BindingSet& b) {
  if (b.empty()) return a;
  RowWriter out(a.schema());
  if (a.empty()) return out.Finish();
  if (a.size() <= b.size()) {
    // Build on a: mark a-rows that have a compatible b-row.
    CompatFinder finder(b, a);
    if (a.width() == 0 || b.width() == 0 || !finder.has_common())
      return out.Finish();
    std::vector<bool> matched(a.size(), false);
    for (size_t rb = 0; rb < b.size(); ++rb)
      finder.ForEachCompatible(rb, [&](size_t ra) { matched[ra] = true; });
    for (size_t ra = 0; ra < a.size(); ++ra)
      if (!matched[ra]) out.Append(a.Row(ra));
    return out.Finish();
  }
  CompatFinder finder(a, b);
  if (a.width() == 0 || b.width() == 0 || !finder.has_common()) {
    // Every µ2 is compatible with every µ1 (no shared bound variables can
    // disagree), so the difference is empty when b is non-empty.
    return out.Finish();
  }
  for (size_t ra = 0; ra < a.size(); ++ra) {
    bool any = false;
    finder.ForEachCompatible(ra, [&](size_t) { any = true; });
    if (!any) out.Append(a.Row(ra));
  }
  return out.Finish();
}

BindingSet LeftOuterJoin(const BindingSet& a, const BindingSet& b,
                         const CancelToken* cancel) {
  CancelCheckpoint chk(cancel);
  RowWriter out(MergedSchema(a, b));
  if (a.empty()) return out.Finish();
  if (out.width() == 0) {
    // Zero-width: each µ1 joins all µ2 if any exist, else survives alone.
    BindingSet empty = out.Finish();
    empty.AppendEmptyMappings(b.empty() ? a.size() : a.size() * b.size());
    return empty;
  }
  out.Reserve(a.size());  // every µ1 yields at least one row
  const size_t aw = a.width();
  if (b.empty()) {
    for (size_t ra = 0; ra < a.size(); ++ra) WritePadded(a.Row(ra), aw, &out);
    return out.Finish();
  }
  if (b.width() == 0) {
    // b holds empty mappings: every one is compatible; merge is µ1 itself.
    for (size_t ra = 0; ra < a.size(); ++ra)
      for (size_t k = 0; k < b.size(); ++k) {
        chk.Poll();
        WritePadded(a.Row(ra), aw, &out);
      }
    return out.Finish();
  }
  const std::vector<std::pair<size_t, size_t>> common = CommonCols(a, b);
  const std::vector<size_t> extra = ExtraCols(a, b);
  if (a.size() <= b.size()) {
    // Build on a, probe with b; track which a-rows matched for padding.
    CompatFinder finder(b, a);
    std::vector<bool> matched(a.size(), false);
    for (size_t rb = 0; rb < b.size(); ++rb) {
      chk.Poll();
      finder.ForEachCompatible(rb, [&](size_t ra) {
        chk.Poll();
        matched[ra] = true;
        WriteMerged(a.Row(ra), aw, b.Row(rb), common, extra, &out);
      });
    }
    for (size_t ra = 0; ra < a.size(); ++ra)
      if (!matched[ra]) WritePadded(a.Row(ra), aw, &out);
    return out.Finish();
  }
  CompatFinder finder(a, b);
  for (size_t ra = 0; ra < a.size(); ++ra) {
    chk.Poll();
    const size_t before = out.rows();
    finder.ForEachCompatible(ra, [&](size_t rb) {
      chk.Poll();
      WriteMerged(a.Row(ra), aw, b.Row(rb), common, extra, &out);
    });
    if (out.rows() == before) WritePadded(a.Row(ra), aw, &out);
  }
  return out.Finish();
}

namespace {

/// Three-valued FILTER evaluation outcome.
enum class Ternary { kTrue, kFalse, kError };

Ternary Not(Ternary t) {
  if (t == Ternary::kError) return t;
  return t == Ternary::kTrue ? Ternary::kFalse : Ternary::kTrue;
}

/// Resolves a slot to a term id under mapping `row`; kUnboundTerm on error.
TermId ResolveSlot(const PatternSlot& slot, const BindingSet& bs, size_t row,
                   const Dictionary& dict) {
  if (slot.is_var) return bs.Value(row, slot.var);
  return dict.Lookup(slot.term);
}


Ternary EvalFilter(const FilterExpr& f, const BindingSet& bs, size_t row,
                   const Dictionary& dict) {
  using Op = FilterExpr::Op;
  switch (f.op) {
    case Op::kAnd: {
      Ternary l = EvalFilter(f.children[0], bs, row, dict);
      Ternary r = EvalFilter(f.children[1], bs, row, dict);
      if (l == Ternary::kFalse || r == Ternary::kFalse) return Ternary::kFalse;
      if (l == Ternary::kError || r == Ternary::kError) return Ternary::kError;
      return Ternary::kTrue;
    }
    case Op::kOr: {
      Ternary l = EvalFilter(f.children[0], bs, row, dict);
      Ternary r = EvalFilter(f.children[1], bs, row, dict);
      if (l == Ternary::kTrue || r == Ternary::kTrue) return Ternary::kTrue;
      if (l == Ternary::kError || r == Ternary::kError) return Ternary::kError;
      return Ternary::kFalse;
    }
    case Op::kNot:
      return Not(EvalFilter(f.children[0], bs, row, dict));
    case Op::kBound: {
      if (!f.lhs.is_var) return Ternary::kError;
      return bs.Value(row, f.lhs.var) != kUnboundTerm ? Ternary::kTrue
                                                      : Ternary::kFalse;
    }
    default: {
      TermId lv = ResolveSlot(f.lhs, bs, row, dict);
      TermId rv = ResolveSlot(f.rhs, bs, row, dict);
      // A constant absent from the dictionary can still be compared for
      // (in)equality against a bound variable — it is simply never equal.
      bool l_unbound = f.lhs.is_var && lv == kUnboundTerm;
      bool r_unbound = f.rhs.is_var && rv == kUnboundTerm;
      if (l_unbound || r_unbound) return Ternary::kError;
      if (f.op == Op::kEq || f.op == Op::kNeq) {
        bool eq;
        if (lv != kUnboundTerm && rv != kUnboundTerm) {
          eq = lv == rv;
        } else {
          // One side is a dictionary-missing constant: compare terms.
          Term lt = f.lhs.is_var ? dict.Decode(lv) : f.lhs.term;
          Term rt = f.rhs.is_var ? dict.Decode(rv) : f.rhs.term;
          eq = lt == rt;
        }
        return (eq == (f.op == Op::kEq)) ? Ternary::kTrue : Ternary::kFalse;
      }
      Term lt = f.lhs.is_var || lv != kUnboundTerm ? dict.Decode(lv) : f.lhs.term;
      Term rt = f.rhs.is_var || rv != kUnboundTerm ? dict.Decode(rv) : f.rhs.term;
      int c = CompareTermsForOrdering(lt, rt);
      bool result = false;
      switch (f.op) {
        case Op::kLt: result = c < 0; break;
        case Op::kGt: result = c > 0; break;
        case Op::kLe: result = c <= 0; break;
        case Op::kGe: result = c >= 0; break;
        default: return Ternary::kError;
      }
      return result ? Ternary::kTrue : Ternary::kFalse;
    }
  }
}

}  // namespace

BindingSet ApplyFilter(const BindingSet& a, const FilterExpr& filter,
                       const Dictionary& dict) {
  RowWriter out(a.schema());
  for (size_t r = 0; r < a.size(); ++r)
    if (EvalFilter(filter, a, r, dict) == Ternary::kTrue) out.Append(a.Row(r));
  return out.Finish();
}

}  // namespace sparqluo
