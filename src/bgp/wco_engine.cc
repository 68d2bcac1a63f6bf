// gStore-style WCO engine, structured for morsel-driven parallelism.
//
// Evaluation is split into:
//   1. BuildPlan   — resolve constants, partition patterns, fix the vertex
//                    extension order, and record for every step how its
//                    variable is produced (the step recipe). Order and
//                    recipes are a pure function of the BGP, the store's
//                    counts and the candidate-set sizes, never of partial
//                    binding contents, so every morsel follows them.
//   2. ExtendStep  — one vertex extension over a flat buffer of partial
//                    bindings, following its step's recipe.
//   3. CompleteRows— the remaining extensions + residual expansion for a
//                    subset of partial bindings. Row-independent, hence
//                    safe to run per morsel.
// Partial bindings live in one contiguous TermId buffer per step (FlatRows),
// never one heap vector per row. Extension emits rows ascending and
// distinct in var_order, and morsels are contiguous slices concatenated in
// order, so without residual patterns the rows are already in their final
// order; only residual expansion needs the global sort+unique (set
// semantics of BGP matching). Either way parallel evaluation is
// bit-identical to sequential: both emit the same sorted, deduplicated row
// set over the same schema.
//
// A BGP whose only non-ground pattern is one constant-predicate edge (two
// distinct variables, or one) skips all of that: its matches are exactly
// that pattern's index range, so RangeCopy copies the range's level-2
// pairs into the result, applying candidate sets on the way, and emits the
// rows in the same final_vars order the general path produces them in.
#include "bgp/wco_engine.h"

#include <algorithm>
#include <optional>

#include "obs/trace.h"

namespace sparqluo {

namespace {

/// Internal view of one resolved core pattern (constant predicate, at least
/// one subject/object variable).
struct CoreEdge {
  ResolvedPattern r;
};

/// Partial bindings in one contiguous buffer: `count` rows of `width`
/// cells, row i at cells[i * width, (i + 1) * width). Zero-width rows (the
/// empty binding extension starts from) are counted, not stored.
struct FlatRows {
  size_t width = 0;
  size_t count = 0;
  std::vector<TermId> cells;

  const TermId* Row(size_t i) const { return cells.data() + i * width; }

  /// Rows [begin, end) as a buffer of their own (one morsel's seeds).
  FlatRows Slice(size_t begin, size_t end) const {
    FlatRows out;
    out.width = width;
    out.count = end - begin;
    out.cells.assign(Row(begin), Row(end));
    return out;
  }
};

/// One edge an extension step reads for its variable `v`: `v` is the
/// subject (v_is_subj) or object of a constant-predicate-`p` pattern whose
/// other endpoint is row column `other_col`, or, when that is SIZE_MAX, the
/// constant `other`. `other` == kInvalidTermId there means the other
/// endpoint is unbound: a projection of the edge, or a self-loop `?v p ?v`.
struct StepEdge {
  TermId p = kInvalidTermId;
  bool v_is_subj = true;
  bool self_loop = false;
  size_t other_col = SIZE_MAX;
  TermId other = kInvalidTermId;
};

/// How one extension step binds its variable. Each row's values are the
/// intersection of the adjacency lists of `edges`, in order, filtered by
/// the variable's candidate set. An `edges` entry with an unbound other
/// endpoint is a self-loop, or the single projection edge of a variable
/// with no bound neighbour. A projection step with `seed_from_candidates`
/// probes the candidate set against the edge instead of scanning it.
struct StepRecipe {
  std::vector<StepEdge> edges;
  const CandidateMap::Set* cands = nullptr;
  bool seed_from_candidates = false;
  /// Distinct values of the projection edge at its variable's end (what a
  /// candidate-seeded step leaves unenumerated counts as pruned).
  uint64_t projected = 0;
};

/// A sorted, duplicate-free list of term ids, read in place: a level-2
/// index range (values are each pair's `third`) or a plain array.
struct IdList {
  const IdPair* pairs = nullptr;
  const TermId* ids = nullptr;
  size_t size = 0;

  TermId operator[](size_t i) const {
    return pairs != nullptr ? pairs[i].third : ids[i];
  }

  static IdList Of(const std::vector<TermId>& v) {
    return IdList{nullptr, v.data(), v.size()};
  }
};

/// Collects the sorted, distinct values the step variable can take
/// according to edge `e` in row `row`: with the other endpoint bound or
/// constant, the (s, p) range of SPO or the (p, o) range of POS, whose
/// `third` components list the values ascending and distinct, read in
/// place; with it unbound (projection, self-loop), a scan of the
/// predicate into `buf`, sorted if the scan order left it unsorted. `hint`
/// carries the previous probe's level-1 position: consecutive rows probe
/// with values drawn from sorted lists, so the CSR directory lookup
/// gallops from the last bucket instead of binary-searching from scratch.
IdList Adjacency(const TripleStore& store, const StepEdge& e,
                 const TermId* row, std::vector<TermId>* buf,
                 BgpEvalCounters* counters, TripleStore::ProbeHint* hint) {
  if (counters) ++counters->index_probes;
  TriplePatternIds q;
  q.p = e.p;
  const TermId other = e.other_col != SIZE_MAX ? row[e.other_col] : e.other;
  if (other != kInvalidTermId) {
    (e.v_is_subj ? q.o : q.s) = other;
    const TripleStore::MatchedRange range = store.Match(q, hint);
    if (range.size() == 0) return IdList{};
    return IdList{range.index->pairs.data() + range.begin, nullptr,
                  range.size()};
  }
  buf->clear();
  TermId last = kInvalidTermId;
  store.Scan(q, hint, [&](const Triple& t) {
    if (e.self_loop && t.s != t.o) return true;
    TermId val = e.v_is_subj ? t.s : t.o;
    // The POS(p) scan yields (o, s) pairs: objects ascending, so dedup
    // needs only the previous value; subjects need the sort below.
    if (val != last) {
      buf->push_back(val);
      last = val;
    }
    return true;
  });
  if (!std::is_sorted(buf->begin(), buf->end())) {
    std::sort(buf->begin(), buf->end());
    buf->erase(std::unique(buf->begin(), buf->end()), buf->end());
  }
  return IdList::Of(*buf);
}

/// a ∩ b into `out`. Walks the shorter list and gallops through the longer
/// one, so a short adjacency list against a long one (a type's members,
/// say) costs O(short · log long) rather than O(long).
IdList Intersect(IdList a, IdList b, std::vector<TermId>* out) {
  if (a.size > b.size) std::swap(a, b);
  out->clear();
  size_t j = 0;
  for (size_t i = 0; i < a.size && j < b.size; ++i) {
    const TermId v = a[i];
    if (b[j] < v) {
      // b[lo] < v; double the stride until b[hi] >= v (or the end), then
      // binary-search (lo, hi] for the first element >= v.
      size_t lo = j, step = 1, hi = j + 1;
      while (hi < b.size && b[hi] < v) {
        lo = hi;
        step <<= 1;
        hi = lo + step;
      }
      hi = std::min(hi, b.size);
      while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        (b[mid] < v ? lo : hi) = mid;
      }
      j = hi;
    }
    if (j < b.size && b[j] == v) {
      out->push_back(v);
      ++j;
    }
  }
  return IdList::Of(*out);
}

/// The precomputed, row-independent shape of one BGP evaluation.
struct WcoPlan {
  std::vector<CoreEdge> core;
  std::vector<ResolvedPattern> residual;
  /// Core extension order (covers every core variable).
  std::vector<VarId> var_order;
  /// recipes[k] produces var_order[k] (column k).
  std::vector<StepRecipe> recipes;
  /// Variables each residual pattern newly binds, in pattern order.
  std::vector<std::vector<VarId>> residual_new;
  /// var_order followed by all residual_new entries: the column layout of
  /// fully extended rows.
  std::vector<VarId> final_vars;
  /// Set when a constant is missing or a ground triple fails: zero matches.
  bool definitely_empty = false;
};

size_t IndexOf(const std::vector<VarId>& vars, VarId v) {
  for (size_t i = 0; i < vars.size(); ++i)
    if (vars[i] == v) return i;
  return SIZE_MAX;
}

/// Records how step `step` of `plan` produces var_order[step]. Extension
/// intersects the variable's self-loops and every incident edge whose other
/// endpoint is a constant or already bound, so each core edge is joined at
/// the step that binds its second endpoint and no row needs a later check.
/// Only a variable with neither projects an edge: its first incident one.
/// (A self-loop's list holds every value the variable can take, so it is
/// the seed whenever the variable has one.)
void BuildRecipe(WcoPlan* plan, size_t step, const Statistics& stats,
                 const CandidateMap* cands) {
  const VarId v = plan->var_order[step];
  StepRecipe recipe;
  recipe.cands = cands != nullptr ? cands->Get(v) : nullptr;
  const CoreEdge* projection = nullptr;
  for (const CoreEdge& e : plan->core) {
    if (e.r.sv != v && e.r.ov != v) continue;
    StepEdge se;
    se.p = e.r.p;
    if (e.r.sv == v && e.r.ov == v) {
      se.self_loop = true;
      recipe.edges.push_back(se);
      continue;
    }
    se.v_is_subj = e.r.sv == v;
    const VarId other_var = se.v_is_subj ? e.r.ov : e.r.sv;
    if (other_var == kInvalidVarId) {
      se.other = se.v_is_subj ? e.r.o : e.r.s;
    } else {
      se.other_col = IndexOf(plan->var_order, other_var);
      if (se.other_col >= step) {
        // Unbound other endpoint: joined when that variable binds.
        if (projection == nullptr) projection = &e;
        continue;
      }
    }
    recipe.edges.push_back(se);
  }
  if (recipe.edges.empty() && projection != nullptr) {
    StepEdge se;
    se.p = projection->r.p;
    se.v_is_subj = projection->r.sv == v;
    recipe.edges.assign(1, se);
    const PredicateStats& ps = stats.ForPredicate(se.p);
    recipe.seed_from_candidates =
        recipe.cands != nullptr && recipe.cands->size() < ps.count;
    recipe.projected =
        se.v_is_subj ? ps.distinct_subjects : ps.distinct_objects;
  }
  plan->recipes.push_back(std::move(recipe));
}

/// Resolves and partitions the BGP, fixes the extension order by replaying
/// the greedy next-variable choice over the simulated bound set, and
/// records each step's recipe. Candidate-set sizes count as seed sizes, so
/// a small candidate set pulls its variable to the front.
WcoPlan BuildPlan(const Bgp& bgp, const TripleStore& store,
                  const Dictionary& dict, const Statistics& stats,
                  const CandidateMap* cands) {
  WcoPlan plan;
  for (const TriplePattern& t : bgp.triples) {
    ResolvedPattern r = Resolve(t, dict);
    if (r.missing_const) {
      plan.definitely_empty = true;
      return plan;
    }
    bool has_so_var = r.sv != kInvalidVarId || r.ov != kInvalidVarId;
    if (!has_so_var && r.pv == kInvalidVarId) {
      if (!store.Contains(Triple(r.s, r.p, r.o))) {
        plan.definitely_empty = true;
        return plan;
      }
      continue;  // ground triple: multiplicative identity
    }
    if (r.pv == kInvalidVarId && has_so_var) {
      plan.core.push_back(CoreEdge{r});
    } else {
      plan.residual.push_back(r);
    }
  }

  // The set of variables handled by the core phase.
  std::vector<VarId> core_vars;
  for (const CoreEdge& e : plan.core) {
    for (VarId v : {e.r.sv, e.r.ov})
      if (v != kInvalidVarId && IndexOf(core_vars, v) == SIZE_MAX)
        core_vars.push_back(v);
  }

  // Estimated seed size of a variable: min over incident edges of the edge's
  // match count with constants bound (cheap index counts), and over its
  // candidate set's size.
  auto seed_count = [&](VarId v) -> double {
    double best = 1e300;
    if (const CandidateMap::Set* cs = cands ? cands->Get(v) : nullptr)
      best = static_cast<double>(cs->size());
    for (const CoreEdge& e : plan.core) {
      if (e.r.sv != v && e.r.ov != v) continue;
      TriplePatternIds q;
      q.p = e.r.p;
      if (e.r.sv == kInvalidVarId) q.s = e.r.s;
      if (e.r.ov == kInvalidVarId) q.o = e.r.o;
      best = std::min(best, static_cast<double>(store.Count(q)));
    }
    return best;
  };

  while (plan.var_order.size() < core_vars.size()) {
    // Pick the next variable: prefer ones adjacent to already-bound vars,
    // break ties by seed selectivity.
    VarId next = kInvalidVarId;
    bool next_adjacent = false;
    double next_score = 1e300;
    for (VarId v : core_vars) {
      if (IndexOf(plan.var_order, v) != SIZE_MAX) continue;
      // v is "adjacent" if some incident edge has a constant or already
      // bound other endpoint — its extension can use an indexed adjacency
      // list instead of a projection seed.
      bool adjacent = false;
      for (const CoreEdge& e : plan.core) {
        if (e.r.sv != v && e.r.ov != v) continue;
        VarId other = e.r.sv == v ? e.r.ov : e.r.sv;
        if (other == kInvalidVarId || IndexOf(plan.var_order, other) != SIZE_MAX) {
          adjacent = true;
          break;
        }
      }
      double score = seed_count(v);
      if (next == kInvalidVarId || (adjacent && !next_adjacent) ||
          (adjacent == next_adjacent && score < next_score)) {
        next = v;
        next_adjacent = adjacent;
        next_score = score;
      }
    }
    plan.var_order.push_back(next);
  }
  for (size_t step = 0; step < plan.var_order.size(); ++step)
    BuildRecipe(&plan, step, stats, cands);

  // Residual patterns bind their not-yet-bound variables in pattern order.
  plan.final_vars = plan.var_order;
  for (const ResolvedPattern& r : plan.residual) {
    std::vector<VarId> new_vars;
    for (VarId v : {r.sv, r.pv, r.ov})
      if (v != kInvalidVarId && IndexOf(plan.final_vars, v) == SIZE_MAX &&
          IndexOf(new_vars, v) == SIZE_MAX)
        new_vars.push_back(v);
    for (VarId v : new_vars) plan.final_vars.push_back(v);
    plan.residual_new.push_back(std::move(new_vars));
  }
  return plan;
}

/// The projection of edge `e` onto its variable's end, restricted to
/// `cands`: the candidates (ascending) with at least one matching triple,
/// one index probe each. Equals projection ∩ candidates without
/// enumerating the projection.
std::vector<TermId> SeedFromCandidates(const TripleStore& store,
                                       const StepEdge& e,
                                       const CandidateMap::Set& cands,
                                       BgpEvalCounters* counters,
                                       TripleStore::ProbeHint* hint) {
  std::vector<TermId> kept;
  TriplePatternIds q;
  q.p = e.p;
  for (TermId c : cands) {
    (e.v_is_subj ? q.s : q.o) = c;
    if (counters) ++counters->index_probes;
    if (store.Count(q, hint) > 0) kept.push_back(c);
  }
  return kept;
}

/// Extends every partial binding in `rows` (columns = plan.var_order[0..step))
/// with plan.var_order[step], following the step's recipe. Each row's
/// values come out ascending, so sorted input rows give sorted output rows.
FlatRows ExtendStep(const TripleStore& store, const WcoPlan& plan, size_t step,
                    const FlatRows& rows, BgpEvalCounters* counters,
                    CancelCheckpoint& chk, TripleStore::ProbeHint* hint) {
  const StepRecipe& recipe = plan.recipes[step];
  const size_t width = rows.width;
  FlatRows out;
  out.width = width + 1;
  // A candidate-seeded projection is row-independent: built once.
  std::vector<TermId> seeded;
  if (recipe.seed_from_candidates && rows.count > 0)
    seeded = SeedFromCandidates(store, recipe.edges.front(), *recipe.cands,
                                counters, hint);
  // A candidate-seeded list holds only candidates already; any other list
  // is intersected with the candidate set.
  const bool filter = recipe.cands != nullptr && !recipe.seed_from_candidates;
  std::vector<TermId> scan[2], meet[2], kept;
  for (size_t i = 0; i < rows.count; ++i) {
    chk.Poll();
    const TermId* row = rows.Row(i);
    IdList list;
    if (recipe.seed_from_candidates) {
      // The projection values left out count as pruned, exactly as the
      // candidate filter below would have counted them.
      if (counters && recipe.projected > seeded.size())
        counters->candidates_pruned += recipe.projected - seeded.size();
      list = IdList::Of(seeded);
    } else {
      for (size_t k = 0; k < recipe.edges.size(); ++k) {
        IdList adj = Adjacency(store, recipe.edges[k], row, &scan[k > 0],
                               counters, hint);
        list = k == 0 ? adj : Intersect(list, adj, &meet[k & 1]);
        if (list.size == 0) break;
      }
    }
    if (filter && list.size > 0) {
      const size_t before = list.size;
      list = Intersect(list, IdList::Of(*recipe.cands), &kept);
      if (counters) counters->candidates_pruned += before - list.size;
    }
    const size_t at = out.cells.size();
    out.cells.resize(at + list.size * out.width);
    TermId* dst = out.cells.data() + at;
    for (size_t j = 0; j < list.size; ++j, dst += out.width) {
      std::copy(row, row + width, dst);
      dst[width] = list[j];
    }
    out.count += list.size;
  }
  if (counters) counters->rows_materialized += out.count;
  return out;
}

/// Runs extension steps [first_step, end) and residual pattern expansion
/// over one subset of partial bindings. The result rows follow plan.final_vars; with residual
/// patterns they are NOT yet sorted or deduplicated.
FlatRows CompleteRows(const TripleStore& store, const WcoPlan& plan,
                      size_t first_step, FlatRows rows,
                      const CandidateMap* cands, BgpEvalCounters* counters,
                      const CancelToken* cancel) {
  CancelCheckpoint chk(cancel);
  // One adaptive probe hint per morsel: rows arrive sorted by their seed
  // column, so consecutive extension probes hit nearby level-1 buckets and
  // the galloping lookup pays O(1) amortized.
  TripleStore::ProbeHint hint;
  for (size_t step = first_step; step < plan.var_order.size(); ++step) {
    rows = ExtendStep(store, plan, step, rows, counters, chk, &hint);
    if (rows.count == 0) return rows;
  }

  // --- Residual patterns (variable predicates) -------------------------
  for (size_t ri = 0; ri < plan.residual.size(); ++ri) {
    const ResolvedPattern& r = plan.residual[ri];
    const std::vector<VarId>& new_vars = plan.residual_new[ri];
    auto col_of = [&](VarId v) -> size_t {
      size_t c = IndexOf(plan.final_vars, v);
      return c < rows.width ? c : SIZE_MAX;
    };
    const size_t s_col = col_of(r.sv), p_col = col_of(r.pv),
                 o_col = col_of(r.ov);
    std::vector<std::optional<CandidateCursor>> new_cands(new_vars.size());
    for (size_t k = 0; k < new_vars.size(); ++k)
      if (const CandidateMap::Set* cs = cands ? cands->Get(new_vars[k]) : nullptr)
        new_cands[k].emplace(*cs);
    FlatRows next;
    next.width = rows.width + new_vars.size();
    TermId vals[3];
    for (size_t i = 0; i < rows.count; ++i) {
      chk.Poll();
      const TermId* row = rows.Row(i);
      TriplePatternIds q;
      q.s = s_col != SIZE_MAX ? row[s_col] : r.s;
      q.p = p_col != SIZE_MAX ? row[p_col] : r.p;
      q.o = o_col != SIZE_MAX ? row[o_col] : r.o;
      if (counters) ++counters->index_probes;
      store.Scan(q, &hint, [&](const Triple& t) {
        chk.Poll();
        // Repeated-variable consistency within the pattern.
        if (r.sv != kInvalidVarId && r.sv == r.ov && t.s != t.o) return true;
        if (r.sv != kInvalidVarId && r.sv == r.pv && t.s != t.p) return true;
        if (r.pv != kInvalidVarId && r.pv == r.ov && t.p != t.o) return true;
        for (size_t k = 0; k < new_vars.size(); ++k) {
          const VarId v = new_vars[k];
          vals[k] = v == r.sv ? t.s : (v == r.pv ? t.p : t.o);
          if (new_cands[k] && !new_cands[k]->Contains(vals[k])) {
            if (counters) ++counters->candidates_pruned;
            return true;
          }
        }
        next.cells.insert(next.cells.end(), row, row + rows.width);
        next.cells.insert(next.cells.end(), vals, vals + new_vars.size());
        ++next.count;
        return true;
      });
    }
    rows = std::move(next);
    if (counters) counters->rows_materialized += rows.count;
    if (rows.count == 0) return rows;
  }
  return rows;
}

/// Projection of the fully extended rows of every part, in part order,
/// onto the canonical bgp.Variables() schema. Extension alone leaves rows
/// ascending and distinct; residual expansion does not, so then the rows
/// are sorted and deduplicated (set semantics of BGP matching) first.
/// Either way the output order is that of the sorted row set, which is
/// what makes the parallel path bit-identical to the sequential one.
BindingSet EmitRows(const std::vector<FlatRows>& parts, const WcoPlan& plan,
                    const std::vector<VarId>& all_vars) {
  RowWriter result(all_vars);
  std::vector<size_t> out_cols;
  out_cols.reserve(all_vars.size());
  for (VarId v : all_vars) out_cols.push_back(IndexOf(plan.final_vars, v));
  auto emit = [&](const TermId* row) {
    TermId* out_row = result.Next();
    for (size_t i = 0; i < out_cols.size(); ++i)
      out_row[i] = out_cols[i] == SIZE_MAX ? kUnboundTerm : row[out_cols[i]];
  };

  size_t total = 0;
  for (const FlatRows& part : parts) total += part.count;
  if (plan.residual.empty()) {
    result.Reserve(total);
    for (const FlatRows& part : parts)
      for (size_t i = 0; i < part.count; ++i) emit(part.Row(i));
    return result.Finish();
  }
  std::vector<const TermId*> order;
  order.reserve(total);
  for (const FlatRows& part : parts)
    for (size_t i = 0; i < part.count; ++i) order.push_back(part.Row(i));
  const size_t width = plan.final_vars.size();
  auto less = [width](const TermId* a, const TermId* b) {
    return std::lexicographical_compare(a, a + width, b, b + width);
  };
  auto same = [width](const TermId* a, const TermId* b) {
    return std::equal(a, a + width, b);
  };
  std::sort(order.begin(), order.end(), less);
  order.erase(std::unique(order.begin(), order.end(), same), order.end());
  result.Reserve(order.size());
  for (const TermId* row : order) emit(row);
  return result.Finish();
}

/// True when `plan` is one constant-predicate edge with two distinct
/// variables, or one, and nothing else to bind: RangeCopy's shape. A
/// self-loop `?x p ?x` needs the s == o filter, so it keeps the general
/// path.
bool IsRangeCopy(const WcoPlan& plan) {
  if (plan.core.size() != 1 || !plan.residual.empty()) return false;
  const ResolvedPattern& r = plan.core.front().r;
  return r.sv != r.ov;
}

/// Evaluates a RangeCopy-shaped plan straight from the index. Rows come
/// out sorted by plan.final_vars (= var_order) over the all_vars schema,
/// exactly as CompleteRows + EmitRows would produce them.
///
/// One variable: the (p, o) or (s, p) range lists its values ascending.
/// Two variables: the POS bucket of p lists (o, s) pairs; they are sorted
/// only when var_order puts s first. When the first variable has a
/// candidate set smaller than the range, its sorted candidates are probed
/// one by one instead (as ExtendStep seeds from candidates), and each
/// probe's range lists the second variable ascending.
BindingSet RangeCopy(const TripleStore& store, const Statistics& stats,
                     const WcoPlan& plan, const CandidateMap* cands,
                     const std::vector<VarId>& all_vars,
                     BgpEvalCounters* counters, const CancelToken* cancel) {
  const ResolvedPattern& r = plan.core.front().r;
  auto cand_set = [&](VarId v) -> const CandidateMap::Set* {
    return cands != nullptr ? cands->Get(v) : nullptr;
  };
  const bool two_vars = plan.var_order.size() == 2;
  const VarId first = plan.var_order[0];
  const bool subject_first = first == r.sv;
  const CandidateMap::Set* cs_first = cand_set(first);
  const CandidateMap::Set* cs_second =
      two_vars ? cand_set(plan.var_order[1]) : nullptr;
  std::optional<CandidateCursor> in_first, in_second;
  if (cs_first != nullptr) in_first.emplace(*cs_first);
  if (cs_second != nullptr) in_second.emplace(*cs_second);

  TriplePatternIds q;
  q.p = r.p;
  if (!two_vars && subject_first) q.o = r.o;
  if (!two_vars && !subject_first) q.s = r.s;
  const TripleStore::MatchedRange range = store.Match(q);
  CancelCheckpoint chk(cancel);
  std::vector<uint64_t> keys;  // rows packed as (first << 32) | second
  uint64_t pruned = 0, probes = 1;
  auto keep = [&](TermId a, TermId b) {
    if (in_second && !in_second->Contains(b)) {
      ++pruned;
      return;
    }
    keys.push_back((uint64_t{a} << 32) | b);
  };

  if (two_vars && cs_first != nullptr && cs_first->size() < range.size()) {
    uint64_t matched_seeds = 0;
    TripleStore::ProbeHint hint;
    for (TermId seed : *cs_first) {
      TriplePatternIds cq = q;
      (subject_first ? cq.s : cq.o) = seed;
      const TripleStore::MatchedRange seed_range = store.Match(cq, &hint);
      ++probes;
      if (seed_range.size() > 0) ++matched_seeds;
      const IdPair* pairs = seed_range.index->pairs.data();
      for (size_t i = seed_range.begin; i < seed_range.end; ++i) {
        chk.Poll();
        keep(seed, pairs[i].third);  // o of SPO (s, p), s of POS (p, o)
      }
    }
    // The first variable's projection values left out count as pruned,
    // as in candidate-seeded extension.
    const PredicateStats& ps = stats.ForPredicate(r.p);
    const uint64_t projected =
        subject_first ? ps.distinct_subjects : ps.distinct_objects;
    if (projected > matched_seeds) pruned += projected - matched_seeds;
  } else {
    keys.reserve(range.size());
    const IdPair* pairs = range.index->pairs.data();
    for (size_t i = range.begin; i < range.end; ++i) {
      chk.Poll();
      if (!two_vars) {
        const TermId v = pairs[i].third;  // s of POS (p, o), o of SPO (s, p)
        if (in_first && !in_first->Contains(v)) {
          ++pruned;
        } else {
          keys.push_back(v);
        }
        continue;
      }
      const TermId o = pairs[i].second, s = pairs[i].third;  // POS (o, s)
      const TermId a = subject_first ? s : o;
      if (in_first && !in_first->Contains(a)) {
        ++pruned;
        continue;
      }
      keep(a, subject_first ? o : s);
    }
    if (two_vars && subject_first) std::sort(keys.begin(), keys.end());
  }

  // all_vars holds exactly var_order's one or two variables.
  RowWriter result(all_vars);
  result.Reserve(keys.size());
  const size_t col_first = IndexOf(all_vars, first);
  const size_t col_second = two_vars ? IndexOf(all_vars, plan.var_order[1]) : 0;
  for (uint64_t key : keys) {
    TermId* row = result.Next();
    if (two_vars) {
      row[col_first] = static_cast<TermId>(key >> 32);
      row[col_second] = static_cast<TermId>(key);
    } else {
      row[col_first] = static_cast<TermId>(key);
    }
  }
  if (counters) {
    counters->index_probes += probes;
    counters->candidates_pruned += pruned;
    counters->rows_materialized += result.rows();
  }
  return result.Finish();
}


}  // namespace

BindingSet WcoEngine::Evaluate(const Bgp& bgp, const CandidateMap* cands,
                               BgpEvalCounters* counters,
                               const CancelToken* cancel,
                               const ParallelSpec& spec) const {
  std::vector<VarId> all_vars = bgp.Variables();
  if (bgp.triples.empty()) {
    BindingSet result(all_vars);
    result.AppendEmptyMappings(1);  // the unit bag
    return result;
  }
  CancelCheckpoint chk(cancel);
  chk.Poll();
  WcoPlan plan = BuildPlan(bgp, store_, dict_, stats_, cands);
  if (plan.definitely_empty) return BindingSet(all_vars);
  if (IsRangeCopy(plan))  // one scan of one range: nothing to split
    return RangeCopy(store_, stats_, plan, cands, all_vars, counters, cancel);

  // Seed step: bind the first core variable (one index scan), producing
  // the partial bindings the morsels partition.
  FlatRows seeds;  // one empty partial binding
  seeds.count = 1;
  size_t first_step = 0;
  if (!plan.var_order.empty()) {
    TripleStore::ProbeHint seed_hint;
    seeds = ExtendStep(store_, plan, 0, seeds, counters, chk, &seed_hint);
    first_step = 1;
    if (seeds.count == 0) return BindingSet(all_vars);
  }

  const size_t num_morsels = spec.MorselCount(seeds.count);
  std::vector<FlatRows> parts;
  if (!spec.enabled() || num_morsels <= 1) {
    parts.push_back(CompleteRows(store_, plan, first_step, std::move(seeds),
                                 cands, counters, cancel));
    return EmitRows(parts, plan, all_vars);
  }

  size_t per_morsel = (seeds.count + num_morsels - 1) / num_morsels;
  parts.resize(num_morsels);
  std::vector<BgpEvalCounters> local(num_morsels);
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    ScopedSpan morsel_span(spec.trace, "morsel", spec.trace_parent);
    size_t begin = std::min(m * per_morsel, seeds.count);
    size_t end = std::min(begin + per_morsel, seeds.count);
    parts[m] = CompleteRows(store_, plan, first_step, seeds.Slice(begin, end),
                            cands, &local[m], cancel);
    morsel_span.Attr("seed_rows", end - begin);
    morsel_span.Attr("rows", parts[m].count);
  });
  if (counters) {
    for (const BgpEvalCounters& c : local) counters->Merge(c);
    counters->morsels += num_morsels;
  }
  return EmitRows(parts, plan, all_vars);
}

std::vector<VarId> WcoEngine::RowOrder(const Bgp& bgp,
                                       const CandidateMap* cands) const {
  return BuildPlan(bgp, store_, dict_, stats_, cands).final_vars;
}

double WcoEngine::EstimateCost(const Bgp& bgp) const {
  if (bgp.triples.empty()) return 0.0;
  // cost(WCOJoin({v1..vk-1}, vk)) = card({v1..vk-1}) * min_i avg_size(vi, p).
  // Follow the same greedy pattern order the evaluation uses, accumulating
  // cardinalities with the sampling estimator.
  std::vector<size_t> order = estimator_.GreedyOrder(bgp);
  double cost = 0.0;
  Bgp prefix;
  double card_prev = 1.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const TriplePattern& t = bgp.triples[order[k]];
    if (k == 0) {
      cost += estimator_.EstimateTriple(t);
      prefix.triples.push_back(t);
      card_prev = estimator_.EstimateBgp(prefix);
      continue;
    }
    // Extension fan: the predicate's average adjacency size.
    double fan = 1.0;
    if (!t.p.is_var) {
      TermId p = dict_.Lookup(t.p.term);
      const PredicateStats& ps = stats_.ForPredicate(p);
      // min over the bound endpoints; approximate with the smaller fanout.
      fan = std::max(1.0, std::min(ps.avg_out(), ps.avg_in()));
    }
    cost += card_prev * fan;
    prefix.triples.push_back(t);
    card_prev = estimator_.EstimateBgp(prefix);
  }
  return cost;
}

}  // namespace sparqluo
