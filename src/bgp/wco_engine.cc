// gStore-style WCO engine, structured for morsel-driven parallelism.
//
// Evaluation is split into:
//   1. BuildPlan   — resolve constants, partition patterns, and fix the
//                    vertex extension order. The order is a pure function
//                    of the BGP, the store's counts and the candidate-set
//                    sizes, never of partial binding contents, so every
//                    morsel follows it.
//   2. ExtendStep  — one vertex extension over a set of partial bindings.
//   3. CompleteRows— the remaining extensions + core verification +
//                    residual expansion for a subset of partial bindings.
//                    Row-independent, hence safe to run per morsel.
// The final sort+unique (set semantics of BGP matching) runs globally over
// the concatenated morsel outputs, which is why parallel evaluation is
// bit-identical to sequential: both emit the same sorted, deduplicated row
// set over the same schema.
//
// A BGP whose only non-ground pattern is one constant-predicate edge (two
// distinct variables, or one) skips all of that: its matches are exactly
// that pattern's index range, so RangeCopy copies the range's level-2
// pairs into the result, applying candidate sets on the way, and emits the
// rows in the same final_vars order the general path sorts them into.
#include "bgp/wco_engine.h"

#include <algorithm>
#include <unordered_set>

#include "obs/trace.h"

namespace sparqluo {

namespace {

/// Internal view of one resolved core pattern (constant predicate, at least
/// one subject/object variable).
struct CoreEdge {
  ResolvedPattern r;
};

/// Collects the sorted, distinct values the variable `v` can take according
/// to edge `e` given the values of the other positions in `fixed`, where
/// kInvalidTermId in fixed means "that position is not yet bound".
/// Returns the list through `out` (sorted ascending). `hint` carries the
/// previous probe's level-1 position: consecutive rows probe with values
/// drawn from sorted candidate lists, so the CSR directory lookup gallops
/// from the last bucket instead of binary-searching from scratch.
void AdjacencyList(const TripleStore& store, const CoreEdge& e, bool v_is_subj,
                   TermId other_value, std::vector<TermId>* out,
                   BgpEvalCounters* counters, TripleStore::ProbeHint* hint) {
  TriplePatternIds q;
  q.p = e.r.p;  // core edges have constant predicates
  if (v_is_subj) {
    q.o = other_value;
  } else {
    q.s = other_value;
  }
  if (counters) ++counters->index_probes;
  const bool self_loop = e.r.sv != kInvalidVarId && e.r.sv == e.r.ov;
  TermId last = kInvalidTermId;
  store.Scan(q, hint, [&](const Triple& t) {
    if (self_loop && t.s != t.o) return true;
    TermId val = v_is_subj ? t.s : t.o;
    // POS/SPO range scans yield the free position in ascending order, so
    // dedup needs only the previous value.
    if (val != last) {
      out->push_back(val);
      last = val;
    }
    return true;
  });
  // Scans through OSP (v subject, other=object bound) yield s sorted; scans
  // through SPO with s bound yield o sorted; seed scans over POS(p) yield
  // (o, s) pairs, so the projection may be unsorted. Normalize.
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

void IntersectSorted(std::vector<TermId>* a, const std::vector<TermId>& b) {
  std::vector<TermId> out;
  out.reserve(std::min(a->size(), b.size()));
  std::set_intersection(a->begin(), a->end(), b.begin(), b.end(),
                        std::back_inserter(out));
  *a = std::move(out);
}

using Rows = std::vector<std::vector<TermId>>;

/// The precomputed, row-independent shape of one BGP evaluation.
struct WcoPlan {
  std::vector<CoreEdge> core;
  std::vector<ResolvedPattern> residual;
  /// Core extension order (covers every core variable).
  std::vector<VarId> var_order;
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

/// Resolves and partitions the BGP and fixes the extension order by
/// replaying the greedy next-variable choice over the simulated bound set.
/// Candidate-set sizes count as seed sizes, so a small candidate set pulls
/// its variable to the front.
WcoPlan BuildPlan(const Bgp& bgp, const TripleStore& store,
                  const Dictionary& dict, const CandidateMap* cands) {
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

/// The projection of edge `e` onto its `v_is_subj` end, restricted to
/// `cands`: the sorted candidates with at least one matching triple, one
/// index probe each. Equals projection ∩ candidates without enumerating the
/// projection.
std::vector<TermId> SeedFromCandidates(const TripleStore& store,
                                       const CoreEdge& e, bool v_is_subj,
                                       const CandidateMap::Set& cands,
                                       BgpEvalCounters* counters,
                                       TripleStore::ProbeHint* hint) {
  std::vector<TermId> kept(cands.begin(), cands.end());
  std::sort(kept.begin(), kept.end());
  TriplePatternIds q;
  q.p = e.r.p;
  auto absent = [&](TermId c) {
    (v_is_subj ? q.s : q.o) = c;
    if (counters) ++counters->index_probes;
    return store.Count(q, hint) == 0;
  };
  kept.erase(std::remove_if(kept.begin(), kept.end(), absent), kept.end());
  return kept;
}

/// Extends every partial binding in `rows` (columns = plan.var_order[0..step))
/// with plan.var_order[step]. The per-row logic is independent across rows.
Rows ExtendStep(const TripleStore& store, const Statistics& stats,
                const WcoPlan& plan, size_t step, const Rows& rows,
                const CandidateMap* cands, BgpEvalCounters* counters,
                CancelCheckpoint& chk, TripleStore::ProbeHint* hint) {
  const VarId next = plan.var_order[step];
  auto col_of = [&](VarId v) -> size_t {
    for (size_t i = 0; i < step; ++i)
      if (plan.var_order[i] == v) return i;
    return SIZE_MAX;
  };
  const CandidateMap::Set* cand_set =
      cands != nullptr ? cands->Get(next) : nullptr;
  // A projection seed is row-independent; with a candidate set smaller
  // than the edge it is built once, from the candidates, on first use.
  std::vector<TermId> seeded;
  bool seeded_built = false;
  Rows next_rows;
  std::vector<TermId> cand_list;
  std::vector<TermId> edge_list;
  for (const auto& row : rows) {
    chk.Poll();
    cand_list.clear();
    bool first_edge = true;
    bool dead = false;
    // Edges incident to `next` whose other endpoint is bound or constant
    // contribute an adjacency list; intersect them all.
    for (const CoreEdge& e : plan.core) {
      bool v_is_subj;
      if (e.r.sv == next && e.r.ov == next) {
        v_is_subj = true;  // self-loop handled inside AdjacencyList
      } else if (e.r.sv == next) {
        v_is_subj = true;
      } else if (e.r.ov == next) {
        v_is_subj = false;
      } else {
        continue;
      }
      // Resolve the other endpoint.
      TermId other;
      if (e.r.sv == next && e.r.ov == next) {
        other = kInvalidTermId;
      } else if (v_is_subj) {
        other = e.r.ov == kInvalidVarId
                    ? e.r.o
                    : (col_of(e.r.ov) == SIZE_MAX ? kInvalidTermId
                                                  : row[col_of(e.r.ov)]);
      } else {
        other = e.r.sv == kInvalidVarId
                    ? e.r.s
                    : (col_of(e.r.sv) == SIZE_MAX ? kInvalidTermId
                                                  : row[col_of(e.r.sv)]);
      }
      bool other_is_unbound_var =
          (v_is_subj ? e.r.ov != kInvalidVarId && col_of(e.r.ov) == SIZE_MAX
                     : e.r.sv != kInvalidVarId && col_of(e.r.sv) == SIZE_MAX) &&
          !(e.r.sv == next && e.r.ov == next);
      if (other_is_unbound_var && !first_edge) {
        // Defer: this edge will constrain when its other endpoint binds.
        continue;
      }
      if (other_is_unbound_var && first_edge) {
        // Use the projection as a (sound) seed only if no better edge
        // exists; check whether any other incident edge has a bound
        // endpoint — if so, skip this one.
        bool better_exists = false;
        for (const CoreEdge& e2 : plan.core) {
          if (&e2 == &e) continue;
          if (e2.r.sv != next && e2.r.ov != next) continue;
          bool e2_subj = e2.r.sv == next;
          bool e2_other_unbound =
              (e2_subj ? e2.r.ov != kInvalidVarId && col_of(e2.r.ov) == SIZE_MAX
                       : e2.r.sv != kInvalidVarId && col_of(e2.r.sv) == SIZE_MAX);
          if (!e2_other_unbound) {
            better_exists = true;
            break;
          }
        }
        if (better_exists) continue;
        const PredicateStats& ps = stats.ForPredicate(e.r.p);
        if (cand_set != nullptr && cand_set->size() < ps.count) {
          // Candidate-seeded projection: probe the candidates instead of
          // scanning the edge. The projection values left out count as
          // pruned, exactly as the filter below would have counted them.
          if (!seeded_built) {
            seeded = SeedFromCandidates(store, e, v_is_subj, *cand_set,
                                        counters, hint);
            seeded_built = true;
          }
          uint64_t projected =
              v_is_subj ? ps.distinct_subjects : ps.distinct_objects;
          if (counters && projected > seeded.size())
            counters->candidates_pruned += projected - seeded.size();
          cand_list = seeded;
          first_edge = false;
          if (cand_list.empty()) dead = true;
          break;
        }
      }
      edge_list.clear();
      AdjacencyList(store, e, v_is_subj, other, &edge_list, counters, hint);
      if (first_edge) {
        cand_list = edge_list;
        first_edge = false;
      } else {
        IntersectSorted(&cand_list, edge_list);
      }
      if (cand_list.empty()) {
        dead = true;
        break;
      }
      if (other_is_unbound_var) break;  // projection seed: one edge only
    }
    if (dead || first_edge) {
      // first_edge still true means no incident edge could seed this
      // variable for this row: disconnected from current bindings. Seed
      // from the globally cheapest incident edge projection.
      if (first_edge && !dead) {
        for (const CoreEdge& e : plan.core) {
          if (e.r.sv != next && e.r.ov != next) continue;
          edge_list.clear();
          AdjacencyList(store, e, e.r.sv == next, kInvalidTermId, &edge_list,
                        counters, hint);
          if (cand_list.empty()) {
            cand_list = edge_list;
          } else {
            IntersectSorted(&cand_list, edge_list);
          }
          break;
        }
      } else if (dead) {
        continue;
      }
    }
    for (TermId val : cand_list) {
      if (cand_set != nullptr && cand_set->count(val) == 0) {
        if (counters) ++counters->candidates_pruned;
        continue;
      }
      std::vector<TermId> nrow = row;
      nrow.push_back(val);
      next_rows.push_back(std::move(nrow));
    }
  }
  if (counters) counters->rows_materialized += next_rows.size();
  return next_rows;
}

/// Runs extension steps [first_step, end), core edge verification and
/// residual pattern expansion over one subset of partial bindings. The
/// result rows follow plan.final_vars; rows are NOT yet deduplicated.
Rows CompleteRows(const TripleStore& store, const Statistics& stats,
                  const WcoPlan& plan, size_t first_step, Rows rows,
                  const CandidateMap* cands, BgpEvalCounters* counters,
                  const CancelToken* cancel) {
  CancelCheckpoint chk(cancel);
  // One adaptive probe hint per morsel: rows arrive sorted by their seed
  // column, so consecutive extension and verification probes hit nearby
  // level-1 buckets and the galloping lookup pays O(1) amortized.
  TripleStore::ProbeHint hint;
  for (size_t step = first_step; step < plan.var_order.size(); ++step) {
    rows = ExtendStep(store, stats, plan, step, rows, cands, counters, chk,
                      &hint);
    if (rows.empty()) return rows;
  }

  // --- Verification of core edges not enforced during extension -------
  // Every core edge with both endpoints bound (or constant) must hold;
  // extensions enforced edges incident to the newly added variable with a
  // bound other endpoint, which covers all of them inductively — except
  // edges whose adjacency was skipped as "deferred". Re-check all.
  auto core_col = [&](VarId v) { return IndexOf(plan.var_order, v); };
  {
    Rows verified;
    verified.reserve(rows.size());
    for (auto& row : rows) {
      chk.Poll();
      bool ok = true;
      for (const CoreEdge& e : plan.core) {
        TermId s = e.r.sv == kInvalidVarId ? e.r.s : row[core_col(e.r.sv)];
        TermId o = e.r.ov == kInvalidVarId ? e.r.o : row[core_col(e.r.ov)];
        if (!store.Contains(Triple(s, e.r.p, o), &hint)) {
          ok = false;
          break;
        }
      }
      if (ok) verified.push_back(std::move(row));
    }
    rows = std::move(verified);
  }

  // --- Residual patterns (variable predicates) -------------------------
  size_t bound_count = plan.var_order.size();
  for (size_t ri = 0; ri < plan.residual.size(); ++ri) {
    const ResolvedPattern& r = plan.residual[ri];
    const std::vector<VarId>& new_vars = plan.residual_new[ri];
    auto col_of = [&](VarId v) -> size_t {
      size_t c = IndexOf(plan.final_vars, v);
      return c < bound_count ? c : SIZE_MAX;
    };
    Rows next_rows;
    for (const auto& row : rows) {
      chk.Poll();
      TriplePatternIds q;
      q.s = r.sv == kInvalidVarId
                ? r.s
                : (col_of(r.sv) != SIZE_MAX ? row[col_of(r.sv)] : kInvalidTermId);
      q.p = r.pv == kInvalidVarId
                ? r.p
                : (col_of(r.pv) != SIZE_MAX ? row[col_of(r.pv)] : kInvalidTermId);
      q.o = r.ov == kInvalidVarId
                ? r.o
                : (col_of(r.ov) != SIZE_MAX ? row[col_of(r.ov)] : kInvalidTermId);
      if (counters) ++counters->index_probes;
      store.Scan(q, &hint, [&](const Triple& t) {
        chk.Poll();
        // Repeated-variable consistency within the pattern.
        if (r.sv != kInvalidVarId && r.sv == r.ov && t.s != t.o) return true;
        if (r.sv != kInvalidVarId && r.sv == r.pv && t.s != t.p) return true;
        if (r.pv != kInvalidVarId && r.pv == r.ov && t.p != t.o) return true;
        std::vector<TermId> nrow = row;
        for (VarId v : new_vars) {
          TermId val = v == r.sv ? t.s : (v == r.pv ? t.p : t.o);
          if (cands != nullptr) {
            const auto* cs = cands->Get(v);
            if (cs != nullptr && cs->count(val) == 0) {
              if (counters) ++counters->candidates_pruned;
              return true;
            }
          }
          nrow.push_back(val);
        }
        next_rows.push_back(std::move(nrow));
        return true;
      });
    }
    bound_count += new_vars.size();
    rows = std::move(next_rows);
    if (counters) counters->rows_materialized += rows.size();
    if (rows.empty()) return rows;
  }
  return rows;
}

/// Sort + unique (set semantics of BGP matching) and projection onto the
/// canonical bgp.Variables() schema. Running this globally over the
/// concatenated morsel outputs is what makes the parallel path bit-identical
/// to the sequential one.
BindingSet EmitRows(Rows rows, const WcoPlan& plan,
                    const std::vector<VarId>& all_vars) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  BindingSet result(all_vars);
  std::vector<size_t> out_cols;
  out_cols.reserve(all_vars.size());
  for (VarId v : all_vars) out_cols.push_back(IndexOf(plan.final_vars, v));
  std::vector<TermId> out_row(all_vars.size());
  result.Reserve(rows.size());
  for (const auto& row : rows) {
    for (size_t i = 0; i < out_cols.size(); ++i)
      out_row[i] = out_cols[i] == SIZE_MAX ? kUnboundTerm : row[out_cols[i]];
    result.AppendRow(out_row);
  }
  return result;
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

  TriplePatternIds q;
  q.p = r.p;
  if (!two_vars && subject_first) q.o = r.o;
  if (!two_vars && !subject_first) q.s = r.s;
  const TripleStore::MatchedRange range = store.Match(q);
  CancelCheckpoint chk(cancel);
  std::vector<uint64_t> keys;  // rows packed as (first << 32) | second
  uint64_t pruned = 0, probes = 1;
  auto keep = [&](TermId a, TermId b) {
    if (cs_second != nullptr && cs_second->count(b) == 0) {
      ++pruned;
      return;
    }
    keys.push_back((uint64_t{a} << 32) | b);
  };

  if (two_vars && cs_first != nullptr && cs_first->size() < range.size()) {
    std::vector<TermId> seeds(cs_first->begin(), cs_first->end());
    std::sort(seeds.begin(), seeds.end());
    uint64_t matched_seeds = 0;
    TripleStore::ProbeHint hint;
    for (TermId seed : seeds) {
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
        if (cs_first != nullptr && cs_first->count(v) == 0) {
          ++pruned;
        } else {
          keys.push_back(v);
        }
        continue;
      }
      const TermId o = pairs[i].second, s = pairs[i].third;  // POS (o, s)
      const TermId a = subject_first ? s : o;
      if (cs_first != nullptr && cs_first->count(a) == 0) {
        ++pruned;
        continue;
      }
      keep(a, subject_first ? o : s);
    }
    if (two_vars && subject_first) std::sort(keys.begin(), keys.end());
  }

  BindingSet result(all_vars);
  result.Reserve(keys.size());
  std::vector<TermId> row(all_vars.size());
  const size_t col_first = IndexOf(all_vars, first);
  const size_t col_second = two_vars ? IndexOf(all_vars, plan.var_order[1]) : 0;
  for (uint64_t key : keys) {
    if (two_vars) {
      row[col_first] = static_cast<TermId>(key >> 32);
      row[col_second] = static_cast<TermId>(key);
    } else {
      row[col_first] = static_cast<TermId>(key);
    }
    result.AppendRow(row);
  }
  if (counters) {
    counters->index_probes += probes;
    counters->candidates_pruned += pruned;
    counters->rows_materialized += result.size();
  }
  return result;
}

}  // namespace

BindingSet WcoEngine::Evaluate(const Bgp& bgp, const CandidateMap* cands,
                               BgpEvalCounters* counters,
                               const CancelToken* cancel) const {
  if (counters) ++counters->wco_evals;
  std::vector<VarId> all_vars = bgp.Variables();
  if (bgp.triples.empty()) {
    BindingSet result(all_vars);
    result.AppendEmptyMappings(1);  // the unit bag
    return result;
  }
  CancelCheckpoint chk(cancel);
  chk.Poll();
  WcoPlan plan = BuildPlan(bgp, store_, dict_, cands);
  if (plan.definitely_empty) return BindingSet(all_vars);
  if (IsRangeCopy(plan))
    return RangeCopy(store_, stats_, plan, cands, all_vars, counters, cancel);
  Rows rows{{}};  // one empty partial binding
  rows = CompleteRows(store_, stats_, plan, 0, std::move(rows), cands, counters,
                      cancel);
  return EmitRows(std::move(rows), plan, all_vars);
}

BindingSet WcoEngine::ParallelEvaluate(const Bgp& bgp, const CandidateMap* cands,
                                       BgpEvalCounters* counters,
                                       const CancelToken* cancel,
                                       const ParallelSpec& spec) const {
  if (!spec.enabled()) return Evaluate(bgp, cands, counters, cancel);
  if (counters) ++counters->wco_evals;
  std::vector<VarId> all_vars = bgp.Variables();
  if (bgp.triples.empty()) {
    BindingSet result(all_vars);
    result.AppendEmptyMappings(1);
    return result;
  }
  CancelCheckpoint chk(cancel);
  chk.Poll();
  WcoPlan plan = BuildPlan(bgp, store_, dict_, cands);
  if (plan.definitely_empty) return BindingSet(all_vars);
  if (IsRangeCopy(plan))  // one scan of one range: nothing to split
    return RangeCopy(store_, stats_, plan, cands, all_vars, counters, cancel);

  // Seed step: bind the first core variable sequentially (one index scan),
  // producing the partial bindings the morsels partition.
  Rows rows{{}};
  size_t first_step = 0;
  if (!plan.var_order.empty()) {
    TripleStore::ProbeHint seed_hint;
    rows = ExtendStep(store_, stats_, plan, 0, rows, cands, counters, chk,
                      &seed_hint);
    first_step = 1;
    if (rows.empty()) return BindingSet(all_vars);
  }

  size_t num_morsels = spec.MorselCount(rows.size());
  if (num_morsels <= 1) {
    // Too little seed fan-out to split: finish sequentially.
    rows = CompleteRows(store_, stats_, plan, first_step, std::move(rows),
                        cands, counters, cancel);
    return EmitRows(std::move(rows), plan, all_vars);
  }

  size_t per_morsel = (rows.size() + num_morsels - 1) / num_morsels;
  std::vector<Rows> outs(num_morsels);
  std::vector<BgpEvalCounters> local(num_morsels);
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    ScopedSpan morsel_span(spec.trace, "morsel", spec.trace_parent);
    size_t begin = m * per_morsel;
    size_t end = std::min(begin + per_morsel, rows.size());
    // Morsel ranges are disjoint and `rows` is dead after the ParallelFor,
    // so the seed bindings move instead of copying.
    Rows subset(std::make_move_iterator(rows.begin() + begin),
                std::make_move_iterator(rows.begin() + end));
    outs[m] = CompleteRows(store_, stats_, plan, first_step,
                           std::move(subset), cands, &local[m], cancel);
    morsel_span.Attr("seed_rows", std::to_string(end - begin));
    morsel_span.Attr("rows", std::to_string(outs[m].size()));
  });

  Rows merged;
  size_t total = 0;
  for (const Rows& out : outs) total += out.size();
  merged.reserve(total);
  for (Rows& out : outs)
    for (auto& row : out) merged.push_back(std::move(row));
  if (counters) {
    for (const BgpEvalCounters& c : local) counters->Merge(c);
    counters->morsels += num_morsels;
  }
  return EmitRows(std::move(merged), plan, all_vars);
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
