#include "engine/executor.h"

#include <algorithm>

#include "algebra/operators.h"
#include "betree/builder.h"
#include "engine/aggregate.h"
#include "engine/path_eval.h"
#include "optimizer/join_order.h"
#include "util/timer.h"

namespace sparqluo {

namespace {

/// Internal control-flow signal for the max_intermediate_rows guard; never
/// escapes this translation unit.
struct RowLimitExceeded {};

/// Result of evaluating one BE-tree node: the bindings plus the node's join
/// space JS (§7.1): BGP -> actual result size; AND/OPTIONAL -> product;
/// UNION -> sum.
struct EvalResult {
  BindingSet rows;
  double js = 1.0;
};

class TreeEvaluator {
 public:
  TreeEvaluator(const BgpEngine& engine, const Dictionary& dict,
                const TripleStore& store, Dictionary* intern,
                const ExecOptions& options, ExecMetrics* metrics)
      : engine_(engine), dict_(dict), store_(store), intern_(intern),
        options_(options), metrics_(metrics), chk_(options.cancel) {}

  /// Algorithm 1 over a group node. `inherited` is the modified algorithm's
  /// third argument `cand`: the caller's current bindings, used to prune
  /// this level's BGP children and forwarded to subtrees until this level
  /// produces bindings of its own (which is what lets the pruning effect of
  /// small results travel across levels, §6).
  EvalResult EvalGroup(const BeNode& group, const BindingSet* inherited) {
    EvalResult acc;
    acc.rows = BindingSet::Unit();
    acc.js = 1.0;
    bool first = true;
    auto cand_source = [&]() -> const BindingSet* {
      if (!options_.candidate_pruning) return nullptr;
      return first ? inherited : &acc.rows;
    };
    for (const auto& child : group.children) {
      chk_.Poll();
      switch (child->type) {
        case BeNode::Type::kBgp: {
          // §6: BGP children are pruned by the function's `cand` argument.
          BindingSet res =
              EvaluateBgp(child->bgp,
                          options_.candidate_pruning ? inherited : nullptr);
          acc.js *= static_cast<double>(std::max<size_t>(res.size(), 1));
          acc.rows = first ? std::move(res) : JoinInto(acc.rows, res);
          break;
        }
        case BeNode::Type::kGroup: {
          EvalResult sub = EvalGroup(*child, cand_source());
          acc.js *= std::max(sub.js, 1.0);
          acc.rows = first ? std::move(sub.rows) : JoinInto(acc.rows, sub.rows);
          break;
        }
        case BeNode::Type::kUnion: {
          BindingSet u;
          double js_sum = 0.0;
          bool ufirst = true;
          const BindingSet* cand = cand_source();
          for (const auto& branch : child->children) {
            EvalResult sub = EvalGroup(*branch, cand);
            js_sum += sub.js;
            u = ufirst ? std::move(sub.rows)
                       : Traced("union", u.size() + sub.rows.size(),
                                [&] { return UnionBag(u, sub.rows); });
            ufirst = false;
          }
          acc.js *= std::max(js_sum, 1.0);
          acc.rows = first ? std::move(u) : JoinInto(acc.rows, u);
          break;
        }
        case BeNode::Type::kOptional: {
          // An OPTIONAL's padding decision depends on its right side's
          // emptiness relative to the CURRENT base (acc). Forwarding the
          // caller's candidates when nothing has been evaluated yet (base =
          // unit bag) could prune away rows that must suppress padding, so
          // inherited candidates stop at a leading OPTIONAL.
          const BindingSet* cand =
              options_.candidate_pruning && !first ? &acc.rows : nullptr;
          EvalResult sub = EvalGroup(*child->children[0], cand);
          acc.js *= std::max(sub.js, 1.0);
          acc.rows = Traced("leftjoin", acc.rows.size() + sub.rows.size(), [&] {
            return LeftOuterJoin(acc.rows, sub.rows, options_.cancel);
          });
          break;
        }
        case BeNode::Type::kFilter: {
          acc.rows = Traced("filter", acc.rows.size(), [&] {
            return ApplyFilter(acc.rows, child->filter, dict_);
          });
          break;
        }
        case BeNode::Type::kPath: {
          // Closure paths are opaque to candidate pruning; their result
          // joins into the accumulator like a BGP child's.
          ScopedSpan path_span(options_.trace, "path", options_.trace_parent);
          ParallelSpec spec = options_.parallel;
          spec.trace = options_.trace;
          spec.trace_parent = path_span.id();
          BindingSet res = EvaluatePath(child->path, store_, dict_, intern_,
                                        options_.cancel, spec);
          path_span.Attr("rows", res.size());
          acc.js *= static_cast<double>(std::max<size_t>(res.size(), 1));
          acc.rows = first ? std::move(res) : JoinInto(acc.rows, res);
          break;
        }
      }
      first = false;
      if (acc.rows.size() > options_.max_intermediate_rows)
        throw RowLimitExceeded{};
      if (acc.rows.empty()) {
        // Every later child is a join, left-outer join, filter or path
        // join, and each keeps an empty bag empty: skip their evaluation.
        // Only their variables are still owed, so the schema (what SELECT *
        // reports) matches a full evaluation's.
        std::vector<VarId> vars;
        group.CollectVariables(&vars);
        acc.rows = BindingSet(std::move(vars));
        break;
      }
    }
    return acc;
  }

 private:
  /// Runs operator `op` under a span `name` (a sibling of the bgp spans)
  /// recording the rows of its inputs and of its result.
  template <typename Op>
  BindingSet Traced(const char* name, size_t rows_in, Op&& op) {
    ScopedSpan span(options_.trace, name, options_.trace_parent);
    BindingSet out = op();
    span.Attr("rows_in", rows_in);
    span.Attr("rows_out", out.size());
    return out;
  }

  BindingSet JoinInto(const BindingSet& acc, const BindingSet& rows) {
    return Traced("join", acc.size() + rows.size(),
                  [&] { return Join(acc, rows, options_.cancel); });
  }

  BindingSet EvaluateBgp(const Bgp& bgp, const BindingSet* cand_source) {
    CandidateMap cands;
    const CandidateMap* cands_ptr = nullptr;
    if (options_.candidate_pruning && cand_source != nullptr &&
        !cand_source->schema().empty() && !cand_source->empty()) {
      // Full mode's adaptive threshold: the estimated BGP result size,
      // floored by the dataset-size-based default — a small *estimated
      // result* does not mean the BGP is cheap to evaluate unpruned, so
      // the floor keeps pruning engaged for selective candidate sets
      // (§6's fallback rule). CP alone uses the fixed default.
      double fixed = options_.fixed_threshold_fraction *
                     static_cast<double>(store_.size());
      double threshold =
          options_.tree_transform
              ? std::max(engine_.EstimateCardinality(bgp), fixed)
              : fixed;
      ScopedSpan cand_span(options_.trace, "candidates",
                           options_.trace_parent);
      BuildCandidates(*cand_source, bgp, threshold, &cands);
      if (!cands.empty()) cands_ptr = &cands;
      if (options_.trace != nullptr) {
        size_t values = 0;
        for (const auto& [v, set] : cands.sets()) values += set.size();
        cand_span.Attr("rows_in", cand_source->size());
        cand_span.Attr("rows_out", values);
      }
    }
    BgpEvalCounters counters;
    ScopedSpan bgp_span(options_.trace, "bgp", options_.trace_parent);
    ParallelSpec spec = options_.parallel;
    spec.trace = options_.trace;
    spec.trace_parent = bgp_span.id();
    BindingSet res =
        engine_.Evaluate(bgp, cands_ptr, &counters, options_.cancel, spec);
    bgp_span.Attr("patterns", bgp.triples.size());
    bgp_span.Attr("rows", res.size());
    bgp_span.Attr("pruned", cands_ptr != nullptr ? "true" : "false");
    bgp_span.Attr("engine", engine_.name());
    if (metrics_) metrics_->bgp.Merge(counters);
    return res;
  }

  /// Converts the current bindings into per-variable candidate sets for the
  /// variables shared with `bgp`. The threshold gates each variable's
  /// DISTINCT value count (a large binding table over few distinct values
  /// is still an excellent pruning source), whatever its row count. A
  /// variable left unbound by any mapping is unconstrained and gets no set.
  void BuildCandidates(const BindingSet& source, const Bgp& bgp,
                       double threshold, CandidateMap* out) const {
    for (VarId v : bgp.Variables()) {
      size_t col = source.ColumnOf(v);
      if (col == SIZE_MAX) continue;
      CandidateMap::Set values;
      if (BuildCandidateSet(source, col, threshold, &values))
        out->Set_(v, std::move(values));
    }
  }

  const BgpEngine& engine_;
  const Dictionary& dict_;
  const TripleStore& store_;
  Dictionary* intern_;
  const ExecOptions& options_;
  ExecMetrics* metrics_;
  CancelCheckpoint chk_;
};

}  // namespace

const char* AbortReasonName(AbortReason reason) {
  switch (reason) {
    case AbortReason::kNone: return "none";
    case AbortReason::kRowLimit: return "row-limit";
    case AbortReason::kDeadline: return "deadline";
    case AbortReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

BeTree Executor::Plan(const Query& query, const ExecOptions& options,
                      ExecMetrics* metrics) const {
  Timer timer;
  ScopedSpan plan_span(options.trace, "plan", options.trace_parent);
  BeTree tree = BuildBeTree(query);
  CostModel cost(engine_);
  if (options.tree_transform) {
    ScopedSpan transform_span(options.trace, "transform", plan_span.id());
    TransformOptions topt;
    topt.skip_cp_equivalent_levels = options.candidate_pruning;
    TransformStats tstats;
    MultiLevelTransform(&tree, cost, topt, &tstats);
    transform_span.Attr("merges", tstats.merges);
    transform_span.Attr("injects", tstats.injects);
    if (metrics) metrics->transform = tstats;
  }
  // §6: pruning only helps when the small result is evaluated first, so
  // with pruning on every group leads its join runs with its smallest child
  // and applies its postponable OPTIONALs after the joins they can prune.
  if (options.candidate_pruning) {
    JoinOrderStats order = OrderJoinRuns(&tree, cost);
    plan_span.Attr("join_runs_reordered", order.runs_reordered);
    plan_span.Attr("optionals_postponed", order.optionals_postponed);
    if (metrics) metrics->optionals_postponed = order.optionals_postponed;
  }
  if (metrics) metrics->transform_ms = timer.ElapsedMillis();
  return tree;
}

BindingSet Executor::EvaluateTree(const BeTree& tree, const ExecOptions& options,
                                  ExecMetrics* metrics) const {
  Timer timer;
  TreeEvaluator eval(engine_, dict_, store_, intern_, options, metrics);
  EvalResult res;
  try {
    res = eval.EvalGroup(*tree.root, nullptr);
  } catch (const RowLimitExceeded&) {
    if (metrics) {
      metrics->aborted = true;
      metrics->abort_reason = AbortReason::kRowLimit;
      metrics->exec_ms = timer.ElapsedMillis();
    }
    return BindingSet();
  } catch (const CancelledError& e) {
    if (metrics) {
      metrics->aborted = true;
      metrics->abort_reason =
          e.deadline ? AbortReason::kDeadline : AbortReason::kCancelled;
      metrics->exec_ms = timer.ElapsedMillis();
    }
    return BindingSet();
  }
  if (metrics) {
    metrics->exec_ms = timer.ElapsedMillis();
    metrics->join_space = res.js;
    metrics->result_rows = res.rows.size();
  }
  return std::move(res.rows);
}

BindingSet Executor::OrderRows(const BindingSet& rows,
                               const std::vector<OrderKey>& keys) const {
  if (rows.width() == 0) return rows;  // only empty mappings: order is moot
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<size_t> cols;
  cols.reserve(keys.size());
  for (const OrderKey& k : keys) cols.push_back(rows.ColumnOf(k.var));
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (cols[k] == SIZE_MAX) continue;
      TermId vx = rows.At(x, cols[k]);
      TermId vy = rows.At(y, cols[k]);
      if (vx == vy) continue;
      int c;
      if (vx == kUnboundTerm) {
        c = -1;  // unbound < bound
      } else if (vy == kUnboundTerm) {
        c = 1;
      } else {
        c = CompareTermsForOrdering(dict_.Decode(vx), dict_.Decode(vy));
      }
      if (c == 0) continue;
      return keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  RowWriter out(rows.schema());
  out.Reserve(rows.size());
  for (size_t i : order) out.Append(rows.Row(i));
  return out.Finish();
}

BindingSet Executor::Slice(const BindingSet& rows, size_t offset,
                           size_t limit) {
  RowWriter out(rows.schema());
  if (offset >= rows.size()) return out.Finish();
  size_t end = rows.size() - offset;
  if (limit != SIZE_MAX) end = std::min(end, limit);
  out.Reserve(end);
  for (size_t i = 0; i < end; ++i) out.Append(rows.Row(offset + i));
  return out.Finish();
}

Result<BindingSet> Executor::Execute(const Query& query,
                                     const ExecOptions& options,
                                     ExecMetrics* metrics) const {
  ExecMetrics local;
  ExecMetrics* m = metrics != nullptr ? metrics : &local;
  BeTree tree = Plan(query, options, m);
  SPARQLUO_RETURN_NOT_OK(tree.Validate());
  return ExecutePlanned(query, tree, options, m);
}

Result<BindingSet> Executor::ExecutePlanned(const Query& query,
                                            const BeTree& tree,
                                            const ExecOptions& options,
                                            ExecMetrics* metrics) const {
  ExecMetrics local;
  ExecMetrics* m = metrics != nullptr ? metrics : &local;
  BindingSet rows;
  {
    ScopedSpan eval_span(options.trace, "eval", options.trace_parent);
    ExecOptions eval_options = options;
    eval_options.trace_parent = eval_span.id();
    rows = EvaluateTree(tree, eval_options, m);
    eval_span.Attr("rows", rows.size());
    if (m->aborted) eval_span.Attr("aborted", AbortReasonName(m->abort_reason));
  }
  if (m->aborted) {
    switch (m->abort_reason) {
      case AbortReason::kDeadline:
        return Status::ResourceExhausted("query deadline exceeded");
      case AbortReason::kCancelled:
        return Status::ResourceExhausted("query cancelled");
      default:
        return Status::ResourceExhausted(
            "intermediate result exceeded max_intermediate_rows");
    }
  }
  if (!query.group_by.empty() || !query.aggregates.empty()) {
    ScopedSpan agg_span(options.trace, "aggregate", options.trace_parent);
    ParallelSpec spec = options.parallel;
    spec.trace = options.trace;
    spec.trace_parent = agg_span.id();
    try {
      Result<BindingSet> agg =
          EvaluateAggregates(rows, query, dict_, intern_, options.cancel, spec);
      if (!agg.ok()) return agg.status();
      rows = std::move(*agg);
    } catch (const CancelledError& e) {
      m->aborted = true;
      m->abort_reason =
          e.deadline ? AbortReason::kDeadline : AbortReason::kCancelled;
      return Status::ResourceExhausted(e.deadline ? "query deadline exceeded"
                                                  : "query cancelled");
    }
    agg_span.Attr("groups", rows.size());
  }
  ScopedSpan serialize_span(options.trace, "serialize", options.trace_parent);
  if (query.form == QueryForm::kAsk) {
    // ASK reduces to solution existence: a zero-width bag holding one empty
    // mapping for "yes", none for "no".
    BindingSet ask;
    if (!rows.empty()) ask.AppendEmptyMappings(1);
    m->result_rows = ask.size();
    return ask;
  }
  if (!query.order_by.empty()) rows = OrderRows(rows, query.order_by);
  if (query.form == QueryForm::kConstruct) {
    // Solution modifiers apply to the WHERE solutions, then the template
    // instantiates per surviving solution.
    if (query.offset > 0 || query.limit != SIZE_MAX)
      rows = Slice(rows, query.offset, query.limit);
    Result<BindingSet> triples = ConstructTriples(query, rows);
    if (!triples.ok()) return triples.status();
    m->result_rows = triples->size();
    serialize_span.Attr("rows", triples->size());
    return triples;
  }
  if (!query.projection.empty()) {
    rows = rows.Project(query.projection);
  } else {
    // SELECT *: hidden variables introduced by path desugaring (names
    // starting with '.') are implementation detail, not solutions.
    std::vector<VarId> visible;
    bool hidden = false;
    for (VarId v : rows.schema()) {
      const std::string& name = query.vars.Name(v);
      if (!name.empty() && name[0] == '.')
        hidden = true;
      else
        visible.push_back(v);
    }
    if (hidden) rows = rows.Project(visible);
  }
  if (query.distinct) rows = rows.Distinct();
  if (query.offset > 0 || query.limit != SIZE_MAX)
    rows = Slice(rows, query.offset, query.limit);
  m->result_rows = rows.size();
  serialize_span.Attr("rows", rows.size());
  return rows;
}

Result<BindingSet> Executor::ConstructTriples(const Query& query,
                                              const BindingSet& rows) const {
  if (intern_ == nullptr)
    return Status::Internal("CONSTRUCT requires an interning dictionary");
  // Resolve template constants to dictionary ids once, up front.
  struct Slot {
    bool is_var;
    VarId var;
    TermId cid;
  };
  struct Template {
    Slot s, p, o;
  };
  auto resolve = [this](const PatternSlot& ps) {
    Slot slot;
    slot.is_var = ps.is_var;
    slot.var = ps.is_var ? ps.var : kInvalidVarId;
    slot.cid = ps.is_var ? kUnboundTerm : intern_->Encode(ps.term);
    return slot;
  };
  std::vector<Template> templates;
  templates.reserve(query.construct_template.size());
  for (const TriplePattern& t : query.construct_template)
    templates.push_back({resolve(t.s), resolve(t.p), resolve(t.o)});

  BindingSet out(std::vector<VarId>{query.construct_s, query.construct_p,
                                    query.construct_o});
  TripleSet seen;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (const Template& t : templates) {
      TermId s = t.s.is_var ? rows.Value(r, t.s.var) : t.s.cid;
      TermId p = t.p.is_var ? rows.Value(r, t.p.var) : t.p.cid;
      TermId o = t.o.is_var ? rows.Value(r, t.o.var) : t.o.cid;
      // A solution that leaves a template variable unbound produces no
      // triple for this template, per SPARQL 1.1 §16.2.
      if (s == kUnboundTerm || p == kUnboundTerm || o == kUnboundTerm)
        continue;
      if (intern_->Decode(s).is_literal() || !intern_->Decode(p).is_iri())
        continue;  // ill-formed triple: skipped, not an error
      if (!seen.insert(Triple{s, p, o}).second) continue;
      out.AppendRow({s, p, o});
    }
  }
  return out;
}

}  // namespace sparqluo
