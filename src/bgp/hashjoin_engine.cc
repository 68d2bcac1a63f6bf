#include "bgp/hashjoin_engine.h"

#include <algorithm>
#include <optional>

#include "algebra/operators.h"
#include "obs/trace.h"

namespace sparqluo {

namespace {

/// The rows of `range` matching the resolved pattern `r`, over `schema`
/// (the pattern's variables), after repeated-variable
/// consistency and candidate-set filtering. ScanPattern runs it once over
/// the whole range or once per morsel — morsels over consecutive slices of
/// one matched range concatenate to the whole range's rows.
BindingSet ScanRange(const TripleStore::MatchedRange& range,
                     const ResolvedPattern& r, const std::vector<VarId>& schema,
                     const CandidateMap* cands, BgpEvalCounters* counters,
                     CancelCheckpoint* chk) {
  RowWriter out(schema);
  out.Reserve(range.size());
  std::vector<TermId> row(schema.size());
  std::vector<std::optional<CandidateCursor>> in_cands(schema.size());
  for (size_t i = 0; i < schema.size(); ++i)
    if (const CandidateMap::Set* cs = cands ? cands->Get(schema[i]) : nullptr)
      in_cands[i].emplace(*cs);
  TripleStore::ScanMatched(range, [&](const Triple& tr) {
    if (chk != nullptr) chk->Poll();
    // Repeated-variable consistency.
    if (r.sv != kInvalidVarId && r.sv == r.ov && tr.s != tr.o) return true;
    if (r.sv != kInvalidVarId && r.sv == r.pv && tr.s != tr.p) return true;
    if (r.pv != kInvalidVarId && r.pv == r.ov && tr.p != tr.o) return true;
    for (size_t i = 0; i < schema.size(); ++i) {
      VarId v = schema[i];
      TermId val = v == r.sv ? tr.s : (v == r.pv ? tr.p : tr.o);
      if (in_cands[i] && !in_cands[i]->Contains(val)) {
        if (counters) ++counters->candidates_pruned;
        return true;
      }
      row[i] = val;
    }
    out.Append(row.data());
    return true;
  });
  return out.Finish();
}

}  // namespace

BindingSet HashJoinEngine::ScanPattern(const TriplePattern& t,
                                       const CandidateMap* cands,
                                       BgpEvalCounters* counters,
                                       const CancelToken* cancel,
                                       const ParallelSpec& spec) const {
  std::vector<VarId> schema = t.Variables();
  BindingSet out(schema);
  ResolvedPattern r = Resolve(t, dict_);
  if (r.missing_const) return out;
  TriplePatternIds q;
  q.s = r.sv == kInvalidVarId ? r.s : kInvalidTermId;
  q.p = r.pv == kInvalidVarId ? r.p : kInvalidTermId;
  q.o = r.ov == kInvalidVarId ? r.o : kInvalidTermId;
  if (counters) ++counters->index_probes;
  TripleStore::MatchedRange range = store_.Match(q);
  size_t num_morsels = spec.MorselCount(range.size());
  if (!spec.enabled() || num_morsels <= 1) {
    CancelCheckpoint chk(cancel);
    out = ScanRange(range, r, schema, cands, counters, &chk);
    if (counters) counters->rows_materialized += out.size();
    return out;
  }

  size_t per_morsel = (range.size() + num_morsels - 1) / num_morsels;
  std::vector<BindingSet> outs(num_morsels, BindingSet(schema));
  std::vector<BgpEvalCounters> local(num_morsels);
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    ScopedSpan morsel_span(spec.trace, "morsel", spec.trace_parent);
    CancelCheckpoint chk(cancel);
    size_t begin = m * per_morsel;
    size_t end = std::min(begin + per_morsel, range.size());
    outs[m] = ScanRange(range.Slice(begin, end), r, schema, cands, &local[m],
                        &chk);
    morsel_span.Attr("rows", outs[m].size());
  });

  size_t total = 0;
  for (const BindingSet& o : outs) total += o.size();
  out.Reserve(total);
  for (const BindingSet& o : outs) out.Append(o);
  if (counters) {
    for (const BgpEvalCounters& c : local)
      counters->candidates_pruned += c.candidates_pruned;
    counters->morsels += num_morsels;
    counters->rows_materialized += out.size();
  }
  return out;
}

BindingSet HashJoinEngine::Evaluate(const Bgp& bgp, const CandidateMap* cands,
                                    BgpEvalCounters* counters,
                                    const CancelToken* cancel,
                                    const ParallelSpec& spec) const {
  std::vector<VarId> all_vars = bgp.Variables();
  if (bgp.triples.empty()) {
    BindingSet unit(all_vars);
    unit.AppendEmptyMappings(1);
    return unit;
  }
  CancelCheckpoint chk(cancel);
  chk.Poll();
  std::vector<size_t> order = estimator_.GreedyOrder(bgp);
  BindingSet acc =
      ScanPattern(bgp.triples[order[0]], cands, counters, cancel, spec);
  for (size_t k = 1; k < order.size(); ++k) {
    if (acc.empty()) break;
    chk.Poll();
    BindingSet next =
        ScanPattern(bgp.triples[order[k]], cands, counters, cancel, spec);
    acc = Join(acc, next, cancel, spec,
               counters != nullptr ? &counters->morsels : nullptr);
    if (counters) counters->rows_materialized += acc.size();
  }
  // Normalize the schema to bgp.Variables() order. All variables are bound
  // by construction (every pattern's table carries its own variables).
  if (acc.schema() != all_vars) acc = acc.Project(all_vars);
  return acc;
}

double HashJoinEngine::EstimateCost(const Bgp& bgp) const {
  if (bgp.triples.empty()) return 0.0;
  std::vector<size_t> order = estimator_.GreedyOrder(bgp);
  // Cost of the initial scan plus each binary join per Equation 9.
  double cost = estimator_.EstimateTriple(bgp.triples[order[0]]);
  Bgp prefix;
  prefix.triples.push_back(bgp.triples[order[0]]);
  double card_acc = estimator_.EstimateBgp(prefix);
  for (size_t k = 1; k < order.size(); ++k) {
    double card_next = estimator_.EstimateTriple(bgp.triples[order[k]]);
    cost += 2.0 * std::min(card_acc, card_next) + std::max(card_acc, card_next);
    prefix.triples.push_back(bgp.triples[order[k]]);
    card_acc = estimator_.EstimateBgp(prefix);
  }
  return cost;
}

}  // namespace sparqluo
