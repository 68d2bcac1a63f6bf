// SPARQL 1.1 conformance fixtures: hand-written scenarios pinning the
// exact dialect semantics documented in docs/sparql_surface.md, at the
// edges the random differential suite cannot assert precisely —
// empty groups, COUNT(DISTINCT), unbound values inside aggregates,
// decimal result formatting, zero-length `*` (including over terms absent
// from the data), cyclic `+`, CONSTRUCT deduplication and modifier order,
// no-op pattern updates, and commit-equals-rebuild for pattern updates.
//
// Also home to the regression tests for the cross-cutting plumbing the
// four feature families ride on: plan-cache keys partitioned by query
// form, and cancellation mid-path-traversal releasing pinned versions.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "reference_eval.h"
#include "server/plan_cache.h"
#include "server/query_service.h"
#include "store/update.h"
#include "util/cancellation.h"

namespace sparqluo {
namespace testing {
namespace {

std::string DataPath(const std::string& rel) {
  return std::string(SPARQLUO_TEST_DATA_DIR) + "/sparql11/" + rel;
}

std::string I(const std::string& local) {
  return "<http://ex.org/" + local + ">";
}
std::string Int(int v) {
  return "\"" + std::to_string(v) +
         "\"^^<http://www.w3.org/2001/XMLSchema#integer>";
}
std::string Dec(const std::string& lex) {
  return "\"" + lex + "\"^^<http://www.w3.org/2001/XMLSchema#decimal>";
}

/// One canonical row from its cells (sorted, as CanonicalizeEngineRows
/// emits them).
CanonicalRow Row(std::vector<std::string> cells) {
  std::sort(cells.begin(), cells.end());
  return cells;
}

/// The social.nt fixture loaded into one engine:
///   knows: a -> b -> c -> a (3-cycle), d -> d (self-loop); e, f isolated
///   type:  a,b,f : C1   c : C2   e : C3
///   age:   a 10, b 20, c 20 (xsd:integer), e "unknown" (non-numeric)
///   f has a type but no age (unbound under OPTIONAL).
struct Fixture {
  Database db;

  explicit Fixture(EngineKind kind) {
    Status st = db.LoadNTriplesFile(DataPath("social.nt"));
    EXPECT_TRUE(st.ok()) << st.ToString();
    db.Finalize(kind);
  }

  std::vector<CanonicalRow> Run(const std::string& text) {
    auto parsed = db.Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return {};
    auto rows = db.executor().Execute(*parsed, ExecOptions::Full());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) return {};
    return SortedCanonical(CanonicalizeEngineRows(*rows, *parsed, db.dict()));
  }

  bool Ask(const std::string& text) {
    auto parsed = db.Parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return false;
    EXPECT_EQ(parsed->form, QueryForm::kAsk);
    auto rows = db.executor().Execute(*parsed, ExecOptions::Full());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() && !rows->empty();
  }
};

/// Runs `text` on both BGP engines, asserts they agree, and returns the
/// sorted canonical rows.
std::vector<CanonicalRow> RunBoth(const std::string& text) {
  Fixture wco(EngineKind::kWco);
  Fixture hash(EngineKind::kHashJoin);
  auto a = wco.Run(text);
  auto b = hash.Run(text);
  EXPECT_EQ(a, b) << "engines diverged on: " << text;
  return a;
}

bool AskBoth(const std::string& text) {
  Fixture wco(EngineKind::kWco);
  Fixture hash(EngineKind::kHashJoin);
  bool a = wco.Ask(text);
  bool b = hash.Ask(text);
  EXPECT_EQ(a, b) << "engines diverged on: " << text;
  return a;
}

// ---------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------

TEST(AggregateConformance, CountDistinctPerGroup) {
  auto got = RunBoth(
      "SELECT ?t (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s " + I("type") +
      " ?t . ?s " + I("age") + " ?v } GROUP BY ?t");
  // C1 joins ages {10, 20} (f has no age and drops out of the join);
  // C2 {20}; C3 {"unknown"} — DISTINCT counts any bound value.
  auto want = SortedCanonical({Row({"?t=" + I("C1"), "?n=" + Int(2)}),
                               Row({"?t=" + I("C2"), "?n=" + Int(1)}),
                               Row({"?t=" + I("C3"), "?n=" + Int(1)})});
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, CountStarVsCountVarOverOptional) {
  auto got = RunBoth("SELECT ?t (COUNT(*) AS ?all) (COUNT(?v) AS ?b) WHERE "
                     "{ ?s " + I("type") + " ?t OPTIONAL { ?s " + I("age") +
                     " ?v } } GROUP BY ?t");
  // COUNT(*) counts rows, COUNT(?v) skips rows where ?v is unbound:
  // C1 has members a, b, f but f carries no age.
  auto want = SortedCanonical({Row({"?t=" + I("C1"), "?all=" + Int(3),
                                    "?b=" + Int(2)}),
                               Row({"?t=" + I("C2"), "?all=" + Int(1),
                                    "?b=" + Int(1)}),
                               Row({"?t=" + I("C3"), "?all=" + Int(1),
                                    "?b=" + Int(1)})});
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, GroupByOverEmptyInputYieldsNoGroups) {
  auto got = RunBoth("SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s " + I("none") +
                     " ?v } GROUP BY ?s");
  EXPECT_TRUE(got.empty());
}

TEST(AggregateConformance, ImplicitGroupOverEmptyInput) {
  // Without GROUP BY there is exactly one group even over zero rows:
  // COUNT(*) = 0 and SUM of nothing is the integer 0.
  auto got = RunBoth("SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE { ?x " +
                     I("none") + " ?v }");
  auto want =
      std::vector<CanonicalRow>{Row({"?n=" + Int(0), "?s=" + Int(0)})};
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, MinMaxOverNoValuesAreUnbound) {
  // MIN/MAX over an empty column have no champion: the single implicit
  // group row exists but both result variables stay unbound.
  auto got = RunBoth("SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?x " +
                     I("none") + " ?v }");
  auto want = std::vector<CanonicalRow>{CanonicalRow{}};
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, SumOverNonNumericIsUnbound) {
  // e's age is the plain literal "unknown": SUM/AVG poison on any
  // non-numeric input and come back unbound for the whole group.
  auto got = RunBoth("SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?x " +
                     I("age") + " ?v }");
  auto want = std::vector<CanonicalRow>{CanonicalRow{}};
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, SumStaysIntegerAvgIsDecimal) {
  auto got = RunBoth("SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?x " +
                     I("type") + " " + I("C1") + " . ?x " + I("age") +
                     " ?v }");
  // All-integer input: SUM keeps xsd:integer; AVG is always xsd:decimal,
  // formatted with %.12g (15, not 15.0).
  auto want = std::vector<CanonicalRow>{
      Row({"?s=" + Int(30), "?a=" + Dec("15")})};
  EXPECT_EQ(got, want);
}

TEST(AggregateConformance, AvgDecimalFormattingPin) {
  auto got = RunBoth("SELECT (AVG(?v) AS ?a) WHERE { ?x " + I("type") +
                     " ?t . ?x " + I("age") + " ?v . FILTER(?t != " +
                     I("C3") + ") }");
  // 50 / 3 rendered through %.12g: twelve significant digits.
  auto want =
      std::vector<CanonicalRow>{Row({"?a=" + Dec("16.6666666667")})};
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// FILTER scope
// ---------------------------------------------------------------------

TEST(FilterConformance, FilterConstrainsItsWholeGroup) {
  // SPARQL 1.1 §18.2.2: a FILTER applies to its whole group wherever it is
  // written, so BOUND(?v) sees the OPTIONAL written after it. a, b, c and e
  // carry an age; f has a type but no age and is the one row filtered out.
  // Applied at its written position the filter would see ?v unbound in
  // every row and return nothing.
  const std::string text = "SELECT ?s ?v WHERE { ?s " + I("type") +
                           " ?t . FILTER(BOUND(?v)) OPTIONAL { ?s " +
                           I("age") + " ?v } }";
  auto want = SortedCanonical({Row({"?s=" + I("a"), "?v=" + Int(10)}),
                               Row({"?s=" + I("b"), "?v=" + Int(20)}),
                               Row({"?s=" + I("c"), "?v=" + Int(20)}),
                               Row({"?s=" + I("e"), "?v=\"unknown\""})});
  for (EngineKind kind : {EngineKind::kWco, EngineKind::kHashJoin}) {
    Fixture f(kind);
    auto parsed = f.db.Parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const ExecOptions& opts : {ExecOptions::Base(), ExecOptions::TT(),
                                    ExecOptions::CP(), ExecOptions::Full()}) {
      auto rows = f.db.executor().Execute(*parsed, opts);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_EQ(SortedCanonical(CanonicalizeEngineRows(*rows, *parsed,
                                                        f.db.dict())),
                want)
          << opts.Name();
    }
  }
}

// ---------------------------------------------------------------------
// Property paths
// ---------------------------------------------------------------------

TEST(PathConformance, ZeroLengthStarOnNodeWithoutEdges) {
  // e has no knows edges at all: knows* still yields the zero-length
  // path to itself.
  auto got = RunBoth("SELECT ?x WHERE { " + I("e") + " " + I("knows") +
                     "* ?x }");
  auto want = std::vector<CanonicalRow>{Row({"?x=" + I("e")})};
  EXPECT_EQ(got, want);
}

TEST(PathConformance, ZeroLengthStarMatchesTermAbsentFromData) {
  // `*` relates every term to itself — even one never mentioned in the
  // data. `+` requires at least one edge and fails.
  EXPECT_TRUE(AskBoth("ASK { " + I("zz") + " " + I("knows") + "* " + I("zz") +
                      " }"));
  EXPECT_FALSE(AskBoth("ASK { " + I("zz") + " " + I("knows") + "+ " + I("zz") +
                       " }"));
}

TEST(PathConformance, PlusOverCycleReachesStart) {
  // a -> b -> c -> a: one-or-more steps from a reach b, c and (around the
  // cycle) a itself.
  auto got = RunBoth("SELECT ?x WHERE { " + I("a") + " " + I("knows") +
                     "+ ?x }");
  auto want = SortedCanonical({Row({"?x=" + I("a")}), Row({"?x=" + I("b")}),
                               Row({"?x=" + I("c")})});
  EXPECT_EQ(got, want);
}

TEST(PathConformance, SameVariablePlusFindsCycleMembers) {
  // ?x knows+ ?x holds exactly for the 3-cycle members and the self-loop.
  auto got = RunBoth("SELECT ?x WHERE { ?x " + I("knows") + "+ ?x }");
  auto want = SortedCanonical({Row({"?x=" + I("a")}), Row({"?x=" + I("b")}),
                               Row({"?x=" + I("c")}), Row({"?x=" + I("d")})});
  EXPECT_EQ(got, want);
}

TEST(PathConformance, BothVariableStarRangesOverAllGraphNodes) {
  // With both endpoints unbound, `*` ranges over every node of the graph
  // (every subject or object, literals and classes included): each node
  // pairs with itself at length zero, plus the genuine closure pairs of
  // the knows cycle.
  auto got = RunBoth("SELECT ?x ?y WHERE { ?x " + I("knows") + "* ?y }");
  std::vector<std::string> nodes = {
      I("a"),  I("b"),  I("c"),  I("d"),       I("e"),      I("f"),
      I("C1"), I("C2"), I("C3"), Int(10),      Int(20),     "\"unknown\"",
      "\"eve\""};
  std::vector<CanonicalRow> want;
  for (const std::string& n : nodes) want.push_back(Row({"?x=" + n, "?y=" + n}));
  for (const char* x : {"a", "b", "c"})
    for (const char* y : {"a", "b", "c"})
      if (std::string(x) != y)
        want.push_back(Row({"?x=" + I(x), "?y=" + I(y)}));
  EXPECT_EQ(got, SortedCanonical(std::move(want)));
}

// ---------------------------------------------------------------------
// CONSTRUCT
// ---------------------------------------------------------------------

std::string Stmt(const std::string& s, const std::string& p,
                 const std::string& o) {
  return s + " " + p + " " + o + " .";
}

TEST(ConstructConformance, OutputIsDeduplicated) {
  // Three C1 members instantiate the same triple; CONSTRUCT emits it once.
  auto got = RunBoth("CONSTRUCT { " + I("x") + " " + I("has") +
                     " ?t } WHERE { ?s " + I("type") + " ?t }");
  auto want = SortedCanonical(
      {CanonicalRow{Stmt(I("x"), I("has"), I("C1"))},
       CanonicalRow{Stmt(I("x"), I("has"), I("C2"))},
       CanonicalRow{Stmt(I("x"), I("has"), I("C3"))}});
  EXPECT_EQ(got, want);
}

TEST(ConstructConformance, IllFormedTriplesAreSkipped) {
  // Every instantiation puts a literal in subject position: all skipped,
  // empty graph.
  auto got = RunBoth("CONSTRUCT { ?v " + I("of") + " ?s } WHERE { ?s " +
                     I("age") + " ?v }");
  EXPECT_TRUE(got.empty());
}

TEST(ConstructConformance, ModifiersApplyToSolutionsNotTriples) {
  // ORDER BY / LIMIT cut the solution sequence before template
  // instantiation: LIMIT 1 keeps one solution (a, the smallest age;
  // non-numeric "unknown" sorts after the integers) which still
  // instantiates both template triples.
  auto got = RunBoth("CONSTRUCT { ?s " + I("aged") + " ?v . ?s " + I("seen") +
                     " \"y\" } WHERE { ?s " + I("age") +
                     " ?v } ORDER BY ?v LIMIT 1");
  auto want = SortedCanonical(
      {CanonicalRow{Stmt(I("a"), I("aged"), Int(10))},
       CanonicalRow{Stmt(I("a"), I("seen"), "\"y\"")}});
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------
// Pattern updates
// ---------------------------------------------------------------------

TEST(UpdateConformance, NoMatchPatternUpdateIsNoOpCommit) {
  for (EngineKind kind : {EngineKind::kWco, EngineKind::kHashJoin}) {
    Fixture fx(kind);
    auto before = StatementSet(fx.db.store().triples(), fx.db.dict());
    uint64_t before_version = fx.db.Snapshot()->id;
    auto res = fx.db.Update("DELETE { ?s " + I("p") + " ?o } INSERT { ?s " +
                            I("q") + " \"x\" } WHERE { ?s " + I("none") +
                            " ?o }");
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->inserted, 0u);
    EXPECT_EQ(res->deleted, 0u);
    // An empty delta short-circuits: no new version is published (and so
    // no plan-cache invalidation churn), the store is untouched.
    EXPECT_EQ(res->version, before_version);
    EXPECT_EQ(fx.db.Snapshot()->id, before_version);
    EXPECT_EQ(StatementSet(fx.db.store().triples(), fx.db.dict()), before);
  }
}

/// Rebuilds a fresh database holding exactly the version's net triples,
/// interning terms in the same first-seen order so TermIds (and therefore
/// permutation index order and row order) coincide — the update_test
/// rebuild idiom.
std::unique_ptr<Database> RebuildCanonical(const DatabaseVersion& v,
                                           EngineKind kind) {
  auto db = std::make_unique<Database>();
  for (TermId id = 0; id < v.dict->size(); ++id)
    db->dict().Encode(v.dict->Decode(id));
  for (const Triple& t : v.store->triples())
    db->AddTriple(v.dict->Decode(t.s), v.dict->Decode(t.p),
                  v.dict->Decode(t.o));
  db->Finalize(kind);
  return db;
}

std::vector<std::string> DecodedRows(const BindingSet& rows,
                                     const Dictionary& dict) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows.width(); ++c) {
      TermId id = rows.At(r, c);
      line += id == kUnboundTerm ? std::string("UNBOUND")
                                 : dict.Decode(id).ToString();
      line += '\t';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// The committed updates.ru fixture, block by block (blocks are separated
/// by blank lines).
std::vector<std::string> UpdateBlocks() {
  std::ifstream in(DataPath("updates.ru"));
  EXPECT_TRUE(in.good()) << "missing fixture " << DataPath("updates.ru");
  std::vector<std::string> blocks;
  std::string block, line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      if (!block.empty()) blocks.push_back(std::move(block));
      block.clear();
    } else {
      block += line + "\n";
    }
  }
  if (!block.empty()) blocks.push_back(std::move(block));
  return blocks;
}

TEST(UpdateConformance, PatternUpdateCommitMatchesRebuild) {
  // After a script of pattern updates, query results on the committed
  // version must be bit-identical (modulo dictionary renaming) to a
  // database rebuilt from scratch with the committed net triples.
  std::vector<std::string> workload = {
      "SELECT ?x ?y WHERE { ?x " + I("knownBy") + " ?y } ORDER BY ?x ?y",
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s " + I("type") +
          " ?t } GROUP BY ?t ORDER BY ?t",
      "SELECT ?x WHERE { " + I("d") + " " + I("knows") + "+ ?x }",
      "CONSTRUCT { ?s " + I("aged") + " ?v } WHERE { ?s " + I("age") +
          " ?v }",
  };
  for (EngineKind kind : {EngineKind::kWco, EngineKind::kHashJoin}) {
    Fixture fx(kind);
    for (const std::string& block : UpdateBlocks()) {
      auto res = fx.db.Update(block);
      ASSERT_TRUE(res.ok()) << res.status().ToString() << "\n" << block;
    }
    auto snap = fx.db.Snapshot();
    auto rebuilt = RebuildCanonical(*snap, kind);
    for (const std::string& q : workload) {
      SCOPED_TRACE(q);
      auto parsed = fx.db.Parse(q);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      auto live = fx.db.executor().Execute(*parsed, ExecOptions::Full());
      auto fresh = rebuilt->executor().Execute(*parsed, ExecOptions::Full());
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      EXPECT_EQ(DecodedRows(*live, fx.db.dict()),
                DecodedRows(*fresh, rebuilt->dict()));
    }
  }
}

// ---------------------------------------------------------------------
// Plan cache: query-form partitioning
// ---------------------------------------------------------------------

TEST(PlanCacheConformance, KeysPartitionByQueryForm) {
  ExecOptions o = ExecOptions::Full();
  std::string where = "WHERE { ?s " + I("type") + " ?t }";
  std::string ks = PlanCache::MakeKey("SELECT ?s ?t " + where, o, 7);
  std::string ka = PlanCache::MakeKey("ASK " + where, o, 7);
  std::string kc = PlanCache::MakeKey(
      "CONSTRUCT { ?s " + I("kind") + " ?t } " + where, o, 7);
  EXPECT_EQ(ks[0], 'S');
  EXPECT_EQ(ka[0], 'A');
  EXPECT_EQ(kc[0], 'C');
  EXPECT_NE(ks, ka);
  EXPECT_NE(ks, kc);
  EXPECT_NE(ka, kc);
  // The tag scanner must not be fooled by keywords inside literals or IRIs.
  std::string tricky = PlanCache::MakeKey(
      "SELECT ?s WHERE { ?s <http://ex.org/CONSTRUCT> \"ASK\" }", o, 7);
  EXPECT_EQ(tricky[0], 'S');
}

TEST(PlanCacheConformance, ServiceServesFormsFromDistinctEntries) {
  Fixture fx(EngineKind::kWco);
  QueryService::Options sopts;
  sopts.num_threads = 2;
  // Plan-cache-layer test: keep repeats off the result-cache fast path.
  sopts.result_cache_bytes = 0;
  QueryService service(static_cast<const Database&>(fx.db), sopts);
  std::string where = "WHERE { ?s " + I("type") + " ?t }";
  std::string select = "SELECT ?s ?t " + where;
  std::string construct = "CONSTRUCT { " + I("x") + " " + I("has") + " ?t } " +
                          where;

  auto run = [&](const std::string& text) {
    QueryRequest req;
    req.text = text;
    auto resp = service.Submit(std::move(req)).get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    return resp;
  };

  auto s1 = run(select);
  auto c1 = run(construct);
  auto s2 = run(select);
  auto c2 = run(construct);
  EXPECT_FALSE(s1.plan_cache_hit);
  EXPECT_FALSE(c1.plan_cache_hit) << "CONSTRUCT must not hit the SELECT plan";
  EXPECT_TRUE(s2.plan_cache_hit);
  EXPECT_TRUE(c2.plan_cache_hit);
  // Same WHERE clause, different forms: 5 type triples project to 5
  // SELECT rows, but CONSTRUCT deduplicates down to the 3 classes.
  EXPECT_EQ(s1.rows.size(), 5u);
  EXPECT_EQ(c1.rows.size(), 3u);
  EXPECT_EQ(s2.rows.size(), 5u);
  EXPECT_EQ(c2.rows.size(), 3u);
  ASSERT_NE(c2.plan, nullptr);
  EXPECT_EQ(c2.plan->query.form, QueryForm::kConstruct);
}

// ---------------------------------------------------------------------
// Cancellation mid-path-traversal
// ---------------------------------------------------------------------

/// A knows-chain long enough that the all-pairs closure ?x knows+ ?y
/// cannot finish within a few milliseconds (O(n^2) reachable pairs).
std::string ChainNTriples(int n) {
  std::string nt;
  for (int i = 0; i < n; ++i)
    nt += "<http://ex.org/n" + std::to_string(i) + "> <http://ex.org/knows> " +
          "<http://ex.org/n" + std::to_string(i + 1) + "> .\n";
  return nt;
}

const char* kAllPairsPath =
    "SELECT ?x ?y WHERE { ?x <http://ex.org/knows>+ ?y }";

TEST(CancellationConformance, DeadlineAbortsPathTraversal) {
  Database db;
  ASSERT_TRUE(db.LoadNTriplesString(ChainNTriples(4000)).ok());
  db.Finalize(EngineKind::kWco);
  auto parsed = db.Parse(kAllPairsPath);
  ASSERT_TRUE(parsed.ok());
  CancelToken token = CancelToken::WithTimeout(std::chrono::milliseconds(2));
  ExecOptions opts = ExecOptions::Full();
  opts.cancel = &token;
  ExecMetrics metrics;
  auto rows = db.executor().Execute(*parsed, opts, &metrics);
  EXPECT_FALSE(rows.ok()) << "4000-node all-pairs closure finished in <2ms?";
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kDeadline);
}

TEST(CancellationConformance, ExplicitCancelAbortsPathTraversal) {
  Database db;
  ASSERT_TRUE(db.LoadNTriplesString(ChainNTriples(64)).ok());
  db.Finalize(EngineKind::kWco);
  auto parsed = db.Parse(kAllPairsPath);
  ASSERT_TRUE(parsed.ok());
  CancelToken token;
  token.RequestCancel();
  ExecOptions opts = ExecOptions::Full();
  opts.cancel = &token;
  ExecMetrics metrics;
  auto rows = db.executor().Execute(*parsed, opts, &metrics);
  EXPECT_FALSE(rows.ok());
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kCancelled);
}

TEST(CancellationConformance, AbortedPathQueryReleasesPinnedVersion) {
  Database db;
  ASSERT_TRUE(db.LoadNTriplesString(ChainNTriples(4000)).ok());
  db.Finalize(EngineKind::kWco);
  QueryService::Options sopts;
  sopts.num_threads = 2;
  sopts.default_deadline = std::chrono::milliseconds(3);
  QueryService service(static_cast<const Database&>(db), sopts);
  // The service mirrors its pinned-version count into this process-global
  // gauge (GetGauge interns by name, so this is the same instance).
  Gauge* pinned = MetricRegistry::Global().GetGauge("sparqluo_pinned_versions");
  int64_t baseline = pinned->value();

  QueryRequest req;
  req.text = kAllPairsPath;
  auto resp = service.Submit(std::move(req)).get();
  EXPECT_FALSE(resp.status.ok()) << "all-pairs closure finished in <3ms?";
  EXPECT_EQ(resp.metrics.abort_reason, AbortReason::kDeadline);
  EXPECT_EQ(pinned->value(), baseline)
      << "aborted query leaked a pinned version";

  // The service stays healthy: a cheap query on the same version succeeds.
  // Override the 3ms service default so scheduling jitter under a loaded
  // test runner cannot deadline this trivially-cheap ASK.
  QueryRequest ok_req;
  ok_req.deadline = std::chrono::milliseconds(30000);
  ok_req.text = "ASK { <http://ex.org/n0> <http://ex.org/knows> ?y }";
  auto ok_resp = service.Submit(std::move(ok_req)).get();
  EXPECT_TRUE(ok_resp.status.ok()) << ok_resp.status.ToString();
  EXPECT_EQ(pinned->value(), baseline);
}

}  // namespace
}  // namespace testing
}  // namespace sparqluo
