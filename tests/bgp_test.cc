#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "algebra/operators.h"
#include "bgp/cardinality.h"
#include "bgp/engine.h"
#include "engine/database.h"
#include "sparql/parser.h"

namespace sparqluo {
namespace {

/// Fixture with a small social graph loaded under both engines.
class BgpEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    // People a..e, knows edges, names, ages, one hub city.
    std::string nt;
    auto iri = [](const std::string& s) { return "<http://ex.org/" + s + ">"; };
    auto triple = [&](const std::string& s, const std::string& p,
                      const std::string& o) {
      nt += iri(s) + " " + iri(p) + " " + o + " .\n";
    };
    triple("a", "knows", iri("b"));
    triple("a", "knows", iri("c"));
    triple("b", "knows", iri("c"));
    triple("c", "knows", iri("d"));
    triple("d", "knows", iri("e"));
    triple("e", "knows", iri("a"));
    for (const char* person : {"a", "b", "c", "d", "e"}) {
      triple(person, "name", "\"" + std::string(person) + "\"");
      triple(person, "livesIn", iri("city"));
    }
    triple("a", "age", "\"30\"");
    triple("b", "age", "\"40\"");
    ASSERT_TRUE(db_.LoadNTriplesString(nt).ok());
    db_.Finalize(GetParam());
  }

  /// Parses the body of a BGP (triple patterns only) and returns it.
  Bgp ParseBgp(const std::string& body) {
    auto g = ParseGroupGraphPattern("{" + body + "}", &vars_);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    Bgp bgp;
    for (const auto& e : g->elements) {
      EXPECT_EQ(e.kind, PatternElement::Kind::kTriple);
      bgp.triples.push_back(e.triple);
    }
    return bgp;
  }

  BindingSet Eval(const std::string& body, const CandidateMap* cands = nullptr) {
    Bgp bgp = ParseBgp(body);
    return db_.engine().Evaluate(bgp, cands, nullptr);
  }

  Database db_;
  VarTable vars_;
};

INSTANTIATE_TEST_SUITE_P(Engines, BgpEngineTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

TEST_P(BgpEngineTest, SingleTriplePattern) {
  BindingSet r = Eval("?x <http://ex.org/knows> ?y .");
  EXPECT_EQ(r.size(), 6u);
}

TEST_P(BgpEngineTest, BoundSubject) {
  BindingSet r = Eval("<http://ex.org/a> <http://ex.org/knows> ?y .");
  EXPECT_EQ(r.size(), 2u);
}

TEST_P(BgpEngineTest, BoundObject) {
  BindingSet r = Eval("?x <http://ex.org/knows> <http://ex.org/c> .");
  EXPECT_EQ(r.size(), 2u);
}

TEST_P(BgpEngineTest, TwoHopPath) {
  BindingSet r = Eval(
      "?x <http://ex.org/knows> ?y . ?y <http://ex.org/knows> ?z .");
  // Paths of length 2: a-b-c, a-c-d, b-c-d, c-d-e, d-e-a, e-a-b, e-a-c.
  EXPECT_EQ(r.size(), 7u);
}

TEST_P(BgpEngineTest, TriangleQuery) {
  BindingSet r = Eval(
      "?x <http://ex.org/knows> ?y . ?y <http://ex.org/knows> ?z . "
      "?x <http://ex.org/knows> ?z .");
  // Only a->b->c with a->c.
  EXPECT_EQ(r.size(), 1u);
  VarId x = vars_.Lookup("x");
  ASSERT_NE(x, kInvalidVarId);
  EXPECT_EQ(db_.dict().Decode(r.Value(0, x)).lexical, "http://ex.org/a");
}

TEST_P(BgpEngineTest, StarQuery) {
  BindingSet r = Eval(
      "?x <http://ex.org/name> ?n . ?x <http://ex.org/age> ?a . "
      "?x <http://ex.org/livesIn> ?c .");
  EXPECT_EQ(r.size(), 2u);  // only a and b have ages
}

TEST_P(BgpEngineTest, EmptyResultOnMissingConstant) {
  BindingSet r = Eval("?x <http://ex.org/nosuchpredicate> ?y .");
  EXPECT_TRUE(r.empty());
}

TEST_P(BgpEngineTest, GroundTripleTrue) {
  BindingSet r = Eval(
      "<http://ex.org/a> <http://ex.org/knows> <http://ex.org/b> . "
      "?x <http://ex.org/age> ?v .");
  EXPECT_EQ(r.size(), 2u);
}

TEST_P(BgpEngineTest, GroundTripleFalse) {
  BindingSet r = Eval(
      "<http://ex.org/b> <http://ex.org/knows> <http://ex.org/a> . "
      "?x <http://ex.org/age> ?v .");
  EXPECT_TRUE(r.empty());
}

TEST_P(BgpEngineTest, VariablePredicate) {
  BindingSet r = Eval("<http://ex.org/a> ?p ?o .");
  EXPECT_EQ(r.size(), 5u);  // 2 knows + name + livesIn + age
}

TEST_P(BgpEngineTest, VariablePredicateJoined) {
  BindingSet r = Eval(
      "?x <http://ex.org/age> ?a . ?x ?p <http://ex.org/city> .");
  EXPECT_EQ(r.size(), 2u);
}

TEST_P(BgpEngineTest, EmptyBgpIsUnit) {
  Bgp empty;
  BindingSet r = db_.engine().Evaluate(empty);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.width(), 0u);
}

TEST_P(BgpEngineTest, EnginesAgreeWithEachOther) {
  Database other;
  // Rebuild the same data under the other engine.
  std::ostringstream nt;
  WriteNTriples(db_.store(), db_.dict(), nt);
  ASSERT_TRUE(other.LoadNTriplesString(nt.str()).ok());
  other.Finalize(GetParam() == EngineKind::kWco ? EngineKind::kHashJoin
                                                : EngineKind::kWco);
  for (const char* body :
       {"?x <http://ex.org/knows> ?y .",
        "?x <http://ex.org/knows> ?y . ?y <http://ex.org/knows> ?z .",
        "?x <http://ex.org/name> ?n . ?x <http://ex.org/age> ?a ."}) {
    VarTable vars2;
    auto g1 = ParseGroupGraphPattern(std::string("{") + body + "}", &vars_);
    auto g2 = ParseGroupGraphPattern(std::string("{") + body + "}", &vars2);
    ASSERT_TRUE(g1.ok() && g2.ok());
    Bgp b1, b2;
    for (const auto& e : g1->elements) b1.triples.push_back(e.triple);
    for (const auto& e : g2->elements) b2.triples.push_back(e.triple);
    BindingSet r1 = db_.engine().Evaluate(b1);
    BindingSet r2 = other.engine().Evaluate(b2);
    EXPECT_EQ(r1.size(), r2.size()) << body;
  }
}

TEST_P(BgpEngineTest, CandidatePruningRestrictsValues) {
  VarTable vars;
  auto g = ParseGroupGraphPattern("{ ?x <http://ex.org/knows> ?y . }", &vars);
  ASSERT_TRUE(g.ok());
  Bgp bgp;
  bgp.triples.push_back(g->elements[0].triple);
  VarId x = vars.Lookup("x");

  CandidateMap cands;
  TermId a = db_.dict().Lookup(Term::Iri("http://ex.org/a"));
  ASSERT_NE(a, kInvalidTermId);
  cands.Set_(x, {a});
  BgpEvalCounters counters;
  BindingSet r = db_.engine().Evaluate(bgp, &cands, &counters);
  EXPECT_EQ(r.size(), 2u);  // a knows b, c
  for (size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r.Value(i, x), a);
}

TEST_P(BgpEngineTest, CandidatePruningNeverChangesResultsOnJoin) {
  VarTable vars;
  auto g = ParseGroupGraphPattern(
      "{ ?x <http://ex.org/knows> ?y . ?y <http://ex.org/name> ?n . }", &vars);
  ASSERT_TRUE(g.ok());
  Bgp bgp;
  for (const auto& e : g->elements) bgp.triples.push_back(e.triple);

  BindingSet full = db_.engine().Evaluate(bgp);
  // A candidate set containing every subject value must be a no-op.
  CandidateMap cands;
  CandidateMap::Set all;
  VarId x = vars.Lookup("x");
  size_t col = full.ColumnOf(x);
  ASSERT_NE(col, SIZE_MAX);
  for (size_t i = 0; i < full.size(); ++i) all.push_back(full.At(i, col));
  cands.Set_(x, all);
  BindingSet pruned = db_.engine().Evaluate(bgp, &cands, nullptr);
  EXPECT_TRUE(BagEquals(full, pruned));
}

TEST_P(BgpEngineTest, CostIsPositiveAndMonotonicInPatterns) {
  Bgp one = ParseBgp("?x <http://ex.org/knows> ?y .");
  Bgp two = ParseBgp(
      "?x <http://ex.org/knows> ?y . ?y <http://ex.org/knows> ?z .");
  EXPECT_GT(db_.engine().EstimateCost(one), 0.0);
  EXPECT_GE(db_.engine().EstimateCost(two), db_.engine().EstimateCost(one));
}

// -------------------------------------------------- WCO range copy ---
//
// A BGP of one constant-predicate pattern with two distinct variables (or
// one) is evaluated by copying the pattern's index range. Its rows, order
// and schema must equal what WCO's general vertex extension emits — which
// the same pattern written twice still takes — and bag-equal hash join.

class RangeCopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string nt;
    auto iri = [](size_t i) {
      return "<http://ex.org/n" + std::to_string(i) + ">";
    };
    // 24 nodes; each links to three others by a fixed stride, so objects
    // and subjects interleave in id order, plus two self-loops.
    for (size_t i = 0; i < 24; ++i) {
      for (size_t step : {7u, 11u, 17u})
        nt += iri(i) + " <http://ex.org/p> " + iri((i * step + 5) % 24) + " .\n";
      nt += iri(i) + " <http://ex.org/name> \"n" + std::to_string(i) + "\" .\n";
    }
    nt += iri(3) + " <http://ex.org/p> " + iri(3) + " .\n";
    nt += iri(8) + " <http://ex.org/p> " + iri(8) + " .\n";
    ASSERT_TRUE(db_.LoadNTriplesString(nt).ok());
    db_.Finalize(EngineKind::kWco);
    wco_ = MakeEngine(EngineKind::kWco, db_.store(), db_.dict(), db_.stats());
    hashjoin_ =
        MakeEngine(EngineKind::kHashJoin, db_.store(), db_.dict(), db_.stats());
    p_ = Id("p");
  }

  TermId Id(const std::string& local) {
    return db_.dict().Lookup(Term::Iri("http://ex.org/" + local));
  }

  Bgp Parse(const std::string& body) {
    auto g = ParseGroupGraphPattern("{" + body + "}", &vars_);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    Bgp bgp;
    for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
    return bgp;
  }

  /// Candidate sets: a few nodes (Nodes) seed their variable from the
  /// candidates; most nodes plus unused ids (AllNodesBut, more values
  /// than the range has triples) filter while copying.
  CandidateMap::Set Nodes(std::initializer_list<size_t> nodes) {
    CandidateMap::Set set;
    for (size_t n : nodes) set.push_back(Id("n" + std::to_string(n)));
    return set;
  }
  CandidateMap::Set AllNodesBut(std::initializer_list<size_t> left_out) {
    CandidateMap::Set set;
    for (size_t n = 0; n < 24; ++n)
      if (std::find(left_out.begin(), left_out.end(), n) == left_out.end())
        set.push_back(Id("n" + std::to_string(n)));
    // Ids no triple uses make the set larger than the range.
    for (TermId fake = 1000000; fake < 1000100; ++fake) set.push_back(fake);
    return set;
  }

  std::vector<CandidateMap> CandidateCases(VarId s, VarId o) {
    std::vector<CandidateMap> cases(1);  // no candidates
    auto add = [&](VarId v, CandidateMap::Set set) {
      if (v == kInvalidVarId) return;
      CandidateMap m;
      m.Set_(v, std::move(set));
      cases.push_back(std::move(m));
    };
    add(s, Nodes({1, 2, 3, 23}));
    add(s, AllNodesBut({4, 9}));
    add(o, Nodes({5, 6, 8}));
    add(o, AllNodesBut({0, 12, 20}));
    if (s != kInvalidVarId && o != kInvalidVarId) {
      CandidateMap both;
      both.Set_(s, Nodes({1, 2, 3, 10, 16}));
      both.Set_(o, AllNodesBut({5, 13}));
      cases.push_back(both);
      CandidateMap both_small;
      both_small.Set_(s, Nodes({0, 3, 7}));
      both_small.Set_(o, Nodes({3, 5, 12, 19}));
      cases.push_back(both_small);
    }
    return cases;
  }

  Database db_;
  VarTable vars_;
  std::unique_ptr<BgpEngine> wco_, hashjoin_;
  TermId p_ = kInvalidTermId;
};

bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

/// True when the rows ascend by the columns of `order`, lexicographically.
bool SortedBy(const BindingSet& rows, const std::vector<VarId>& order) {
  auto key = [&](size_t r) {
    std::vector<TermId> k;
    for (VarId v : order) k.push_back(rows.Value(r, v));
    return k;
  };
  for (size_t r = 1; r < rows.size(); ++r)
    if (!(key(r - 1) < key(r))) return false;
  return true;
}

TEST_F(RangeCopyTest, EqualsGeneralPathAndHashJoin) {
  const VarId s = vars_.Intern("s"), o = vars_.Intern("o"),
              x = vars_.Intern("x");
  struct Shape {
    const char* body;
    VarId s, o;
  };
  const Shape shapes[] = {
      {"?s <http://ex.org/p> ?o .", s, o},
      {"?s <http://ex.org/p> <http://ex.org/n5> .", s, kInvalidVarId},
      {"<http://ex.org/n2> <http://ex.org/p> ?o .", kInvalidVarId, o},
      {"?x <http://ex.org/p> ?x .", x, x},
  };
  for (const Shape& shape : shapes) {
    Bgp bgp = Parse(shape.body);
    // The same pattern twice is two core edges: the general path.
    Bgp general = bgp;
    general.triples.push_back(bgp.triples[0]);
    for (const CandidateMap& cands : CandidateCases(shape.s, shape.o)) {
      SCOPED_TRACE(std::string(shape.body) + " with " +
                   std::to_string(cands.size()) + " candidate set(s)");
      BindingSet got = wco_->Evaluate(bgp, &cands, nullptr);
      EXPECT_TRUE(BitIdentical(got, wco_->Evaluate(general, &cands, nullptr)));
      EXPECT_TRUE(BagEquals(got, hashjoin_->Evaluate(bgp, &cands, nullptr)));
      EXPECT_EQ(got.schema(), bgp.Variables());
      for (size_t r = 0; r < got.size(); ++r)
        for (const auto& [v, set] : cands.sets())
          EXPECT_TRUE(CandidateMap::Contains(set, got.Value(r, v)));
    }
  }
  // The fixture's self-loops are the only `?x p ?x` matches.
  EXPECT_EQ(wco_->Evaluate(Parse("?x <http://ex.org/p> ?x .")).size(), 2u);
}

TEST_F(RangeCopyTest, RowsAscendInExtensionOrder) {
  const VarId s = vars_.Intern("s"), o = vars_.Intern("o");
  Bgp bgp = Parse("?s <http://ex.org/p> ?o .");
  // No candidates: equal seed sizes, so s binds first and the POS range's
  // (o, s) pairs are re-sorted to (s, o).
  BindingSet plain = wco_->Evaluate(bgp);
  EXPECT_EQ(plain.size(), db_.stats().ForPredicate(p_).count);
  EXPECT_TRUE(SortedBy(plain, {s, o}));
  EXPECT_FALSE(SortedBy(plain, {o, s}));
  // A small candidate set on o binds o first: rows ascend by (o, s).
  CandidateMap cands;
  cands.Set_(o, Nodes({5, 6, 8}));
  BindingSet seeded = wco_->Evaluate(bgp, &cands, nullptr);
  EXPECT_GT(seeded.size(), 3u);
  EXPECT_TRUE(SortedBy(seeded, {o, s}));
  EXPECT_FALSE(SortedBy(seeded, {s, o}));
  // One variable: ascending values.
  EXPECT_TRUE(SortedBy(
      wco_->Evaluate(Parse("?s <http://ex.org/p> <http://ex.org/n5> .")), {s}));
}

TEST_F(RangeCopyTest, CountersFollowTheirDefinitions) {
  const VarId s = vars_.Intern("s"), o = vars_.Intern("o");
  Bgp bgp = Parse("?s <http://ex.org/p> ?o .");
  const PredicateStats& ps = db_.stats().ForPredicate(p_);
  ASSERT_GT(ps.count, 24u);

  // Plain copy: one range lookup, every row emitted, nothing pruned.
  BgpEvalCounters plain;
  BindingSet all = wco_->Evaluate(bgp, nullptr, &plain);
  EXPECT_EQ(plain.index_probes, 1u);
  EXPECT_EQ(plain.rows_materialized, all.size());
  EXPECT_EQ(plain.candidates_pruned, 0u);

  // A candidate set larger than the range filters while copying: one
  // pruned per matched triple it rejects.
  CandidateMap large;
  large.Set_(o, AllNodesBut({0, 12, 20}));
  BgpEvalCounters filtered;
  BindingSet kept = wco_->Evaluate(bgp, &large, &filtered);
  EXPECT_EQ(filtered.index_probes, 1u);
  EXPECT_EQ(filtered.rows_materialized, kept.size());
  EXPECT_EQ(filtered.candidates_pruned, ps.count - kept.size());

  // A smaller candidate set seeds its variable: one probe per candidate
  // after the range lookup; the subjects never enumerated count as pruned.
  CandidateMap small;
  small.Set_(s, Nodes({1, 2, 3}));
  BgpEvalCounters seeded;
  BindingSet got = wco_->Evaluate(bgp, &small, &seeded);
  EXPECT_EQ(seeded.index_probes, 1u + 3u);
  EXPECT_EQ(seeded.rows_materialized, got.size());
  EXPECT_EQ(seeded.candidates_pruned, ps.distinct_subjects - 3u);

  // Seeded on s and filtered on o: the o rejections add one each.
  CandidateMap both = small;
  both.Set_(o, AllNodesBut({0, 12, 20}));
  BgpEvalCounters mixed;
  BindingSet both_rows = wco_->Evaluate(bgp, &both, &mixed);
  EXPECT_EQ(mixed.candidates_pruned,
            ps.distinct_subjects - 3u + got.size() - both_rows.size());

  // One variable: the (p, o) range, filtered.
  CandidateMap one;
  one.Set_(s, Nodes({0, 1, 2, 3, 4, 5, 6, 7}));
  Bgp bound = Parse("?s <http://ex.org/p> <http://ex.org/n5> .");
  BgpEvalCounters single;
  BindingSet matches = wco_->Evaluate(bound);
  BindingSet in_set = wco_->Evaluate(bound, &one, &single);
  EXPECT_EQ(single.index_probes, 1u);
  EXPECT_EQ(single.rows_materialized, in_set.size());
  EXPECT_EQ(single.candidates_pruned, matches.size() - in_set.size());
}

// ------------------------------------------------ CardinalityEstimator ---

class EstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string nt;
    for (int i = 0; i < 100; ++i) {
      nt += "<http://e/" + std::to_string(i) + "> <http://p/type> <http://c/T> .\n";
      nt += "<http://e/" + std::to_string(i) + "> <http://p/val> \"" +
            std::to_string(i % 10) + "\" .\n";
    }
    ASSERT_TRUE(db_.LoadNTriplesString(nt).ok());
    db_.Finalize(EngineKind::kWco);
  }
  Database db_;
  VarTable vars_;
};

TEST_F(EstimatorTest, SinglePatternIsExact) {
  auto g = ParseGroupGraphPattern("{ ?x <http://p/type> ?t . }", &vars_);
  ASSERT_TRUE(g.ok());
  const CardinalityEstimator& est = db_.engine().estimator();
  EXPECT_DOUBLE_EQ(est.EstimateTriple(g->elements[0].triple), 100.0);
}

TEST_F(EstimatorTest, MissingConstantIsZero) {
  auto g = ParseGroupGraphPattern("{ ?x <http://p/none> ?t . }", &vars_);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(db_.engine().estimator().EstimateTriple(g->elements[0].triple),
                   0.0);
}

TEST_F(EstimatorTest, JoinEstimateInRightBallpark) {
  auto g = ParseGroupGraphPattern(
      "{ ?x <http://p/type> ?t . ?x <http://p/val> ?v . }", &vars_);
  ASSERT_TRUE(g.ok());
  Bgp bgp;
  for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
  double est = db_.engine().estimator().EstimateBgp(bgp);
  // The true join size is 100; the sampling estimate should land within 2x.
  EXPECT_GE(est, 50.0);
  EXPECT_LE(est, 200.0);
}

TEST_F(EstimatorTest, GreedyOrderStartsSelective) {
  auto g = ParseGroupGraphPattern(
      "{ ?x <http://p/type> ?t . ?x <http://p/val> \"3\" . }", &vars_);
  ASSERT_TRUE(g.ok());
  Bgp bgp;
  for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
  auto order = db_.engine().estimator().GreedyOrder(bgp);
  ASSERT_EQ(order.size(), 2u);
  // Pattern 1 (val="3", 10 matches) is more selective than pattern 0 (100).
  EXPECT_EQ(order[0], 1u);
}

TEST_F(EstimatorTest, EmptyBgpIsOne) {
  Bgp empty;
  EXPECT_DOUBLE_EQ(db_.engine().estimator().EstimateBgp(empty), 1.0);
}

}  // namespace
}  // namespace sparqluo
