// Focused tests for candidate pruning (§6): cross-level transmission, the
// leading-OPTIONAL soundness guard, thresholds, and the OOM guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "algebra/operators.h"
#include "bgp/candidates.h"
#include "engine/database.h"
#include "util/random.h"

namespace sparqluo {
namespace {

/// Data mirroring the paper's q1.3 narrative: one selective anchor, then a
/// chain of low-selectivity relations reachable only through nested
/// OPTIONALs.
class PruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) {
      return Term::Iri("http://p.org/" + s);
    };
    Term anchor_p = iri("anchorOf");
    Term rel1 = iri("rel1");
    Term rel2 = iri("rel2");
    Term root = iri("root");
    for (int i = 0; i < 1500; ++i) {
      Term a = iri("a" + std::to_string(i));
      Term b = iri("b" + std::to_string(i));
      Term c = iri("c" + std::to_string(i));
      if (i < 5) db_.AddTriple(root, anchor_p, a);
      db_.AddTriple(a, rel1, b);
      db_.AddTriple(b, rel2, c);
    }
    db_.Finalize(EngineKind::kWco);
  }

  static std::string Prefix() { return "PREFIX p: <http://p.org/>\n"; }

  Database db_;
};

TEST_F(PruningTest, CrossLevelTransmission) {
  // p:root anchors 5 ?a values; the inner OPTIONAL's BGP (rel2) can only be
  // pruned through the intermediate level (rel1): §6's "transmit the
  // pruning effect of small results across levels".
  const std::string q = Prefix() +
                        "SELECT * WHERE { p:root p:anchorOf ?a . "
                        "OPTIONAL { ?a p:rel1 ?b . "
                        "OPTIONAL { ?b p:rel2 ?c . } } }";
  ExecOptions cp = ExecOptions::CP();
  cp.fixed_threshold_fraction = 0.01;  // 45 rows: admits the 5-row bag
  ExecMetrics base_m, cp_m;
  auto base_r = db_.Query(q, ExecOptions::Base(), &base_m);
  auto cp_r = db_.Query(q, cp, &cp_m);
  ASSERT_TRUE(base_r.ok() && cp_r.ok());
  EXPECT_TRUE(BagEquals(*base_r, *cp_r));
  EXPECT_EQ(cp_r->size(), 5u);
  // base materializes all 1500 rel1 + 1500 rel2 rows; CP only ~5 + ~5.
  EXPECT_GT(base_m.bgp.rows_materialized, 2500u);
  EXPECT_LT(cp_m.bgp.rows_materialized, 100u);
}

TEST_F(PruningTest, LeadingOptionalDoesNotInheritCandidates) {
  // {B . { OPTIONAL { A } } }: pruning A by B's bindings would flip the
  // unit-bag padding decision inside the nested group. The guard must keep
  // results identical to base under every threshold.
  const std::string q = Prefix() +
                        "SELECT * WHERE { p:root p:anchorOf ?a . "
                        "{ OPTIONAL { ?x p:rel1 ?b . } } }";
  auto base_r = db_.Query(q, ExecOptions::Base());
  ASSERT_TRUE(base_r.ok());
  for (double frac : {0.001, 0.01, 1.0}) {
    ExecOptions cp = ExecOptions::CP();
    cp.fixed_threshold_fraction = frac;
    auto cp_r = db_.Query(q, cp);
    ASSERT_TRUE(cp_r.ok());
    EXPECT_TRUE(BagEquals(*base_r, *cp_r)) << "frac=" << frac;
  }
}

TEST_F(PruningTest, AdaptiveThresholdPrunesWhenEstimateIsLarge) {
  const std::string q = Prefix() +
                        "SELECT * WHERE { p:root p:anchorOf ?a . "
                        "OPTIONAL { ?a p:rel1 ?b . } }";
  ExecMetrics m;
  auto r = db_.Query(q, ExecOptions::Full(), &m);
  ASSERT_TRUE(r.ok());
  // rel1 has 1500 estimated matches >> 5 candidates: pruning engages.
  EXPECT_GT(m.bgp.candidates_pruned, 0u);
}

TEST_F(PruningTest, UnionBranchesReceiveCandidates) {
  const std::string q = Prefix() +
                        "SELECT * WHERE { p:root p:anchorOf ?a . "
                        "{ ?a p:rel1 ?b . } UNION { ?b p:rel1 ?a . } }";
  ExecOptions cp = ExecOptions::CP();
  cp.fixed_threshold_fraction = 0.01;
  ExecMetrics m;
  auto r = db_.Query(q, cp, &m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);  // only the first branch matches
  EXPECT_GT(m.bgp.candidates_pruned, 0u);
  auto base_r = db_.Query(q, ExecOptions::Base());
  ASSERT_TRUE(base_r.ok());
  EXPECT_TRUE(BagEquals(*base_r, *r));
}

TEST_F(PruningTest, RowLimitGuardAborts) {
  // A cross product over rel1 x rel2 exceeds a tiny row budget.
  const std::string q = Prefix() +
                        "SELECT * WHERE { ?a p:rel1 ?b . ?x p:rel2 ?y . }";
  ExecOptions opts = ExecOptions::Base();
  opts.max_intermediate_rows = 10000;
  ExecMetrics m;
  auto r = db_.Query(q, opts, &m);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(m.aborted);
}

TEST_F(PruningTest, RowLimitGuardDoesNotFireUnderBudget) {
  const std::string q = Prefix() +
                        "SELECT * WHERE { p:root p:anchorOf ?a . "
                        "?a p:rel1 ?b . }";
  ExecOptions opts = ExecOptions::Base();
  opts.max_intermediate_rows = 10000;
  auto r = db_.Query(q, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST_F(PruningTest, CandidateMapBasics) {
  CandidateMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.Admits(3, 42));  // unconstrained variable admits anything
  m.Set_(3, {7, 8});
  EXPECT_FALSE(m.empty());
  EXPECT_TRUE(m.Has(3));
  EXPECT_TRUE(m.Admits(3, 7));
  EXPECT_FALSE(m.Admits(3, 42));
  EXPECT_EQ(m.Get(3)->size(), 2u);
  EXPECT_EQ(m.Get(4), nullptr);
}

/// A one-column bag holding `values` in order.
BindingSet Column(const std::vector<TermId>& values) {
  BindingSet b(std::vector<VarId>{0});
  for (TermId v : values) b.AppendRow(&v);
  return b;
}

TEST(CandidateSetTest, SortedAndUniqueFromUnsortedColumnWithRepeats) {
  CandidateMap::Set set;
  ASSERT_TRUE(BuildCandidateSet(Column({9, 3, 9, 9, 1, 3, 7, 1}), 0, 10.0, &set));
  EXPECT_EQ(set, (CandidateMap::Set{1, 3, 7, 9}));
}

TEST(CandidateSetTest, ThresholdBoundsTheDistinctCountNotTheRowCount) {
  // Five distinct values pass a threshold of 5 however often they repeat,
  // before or after the fifth first appears.
  CandidateMap::Set set;
  EXPECT_TRUE(BuildCandidateSet(Column({1, 2, 3, 4, 5}), 0, 5.0, &set));
  EXPECT_EQ(set.size(), 5u);
  EXPECT_TRUE(
      BuildCandidateSet(Column({1, 1, 2, 3, 3, 4, 5, 5, 2}), 0, 5.0, &set));
  EXPECT_EQ(set, (CandidateMap::Set{1, 2, 3, 4, 5}));
  EXPECT_TRUE(BuildCandidateSet(Column({5, 4, 3, 2, 1, 1}), 0, 5.5, &set));
  // A sixth distinct value fails it, and the failed build leaves no set.
  EXPECT_FALSE(BuildCandidateSet(Column({1, 2, 3, 4, 5, 6}), 0, 5.0, &set));
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(BuildCandidateSet(Column({1, 1, 2, 3, 4, 5, 6, 6}), 0, 5.5, &set));
  EXPECT_FALSE(BuildCandidateSet(Column({1}), 0, 0.0, &set));
}

TEST(CandidateSetTest, EarlyAbortPastTheThreshold) {
  // The build stops at the first distinct value past the threshold: an
  // unbound cell after it is never reached, and either way no set comes.
  CandidateMap::Set set;
  EXPECT_FALSE(BuildCandidateSet(
      Column({1, 2, 3, 4, 5, 6, 7, kUnboundTerm}), 0, 3.0, &set));
  EXPECT_TRUE(set.empty());
  // Many rows, few values: a long column of repeats stays usable.
  std::vector<TermId> long_column;
  for (int i = 0; i < 40000; ++i) long_column.push_back(100 + i % 36);
  ASSERT_TRUE(BuildCandidateSet(Column(long_column), 0, 36.0, &set));
  EXPECT_EQ(set.size(), 36u);
  EXPECT_EQ(set.front(), 100u);
  EXPECT_EQ(set.back(), 135u);
}

TEST(CandidateSetTest, UnboundCellGivesNoSet) {
  CandidateMap::Set set;
  for (const std::vector<TermId>& column :
       {std::vector<TermId>{kUnboundTerm, 1, 2}, {1, kUnboundTerm, 2},
        {1, 2, kUnboundTerm}, {kUnboundTerm}, {3, 3, kUnboundTerm, 3}}) {
    EXPECT_FALSE(BuildCandidateSet(Column(column), 0, 100.0, &set));
    EXPECT_TRUE(set.empty());
  }
}

TEST(CandidateSetTest, BuildsFromAnyColumnOfAWiderBag) {
  BindingSet b(std::vector<VarId>{4, 5, 6});
  for (TermId r = 0; r < 50; ++r) {
    const TermId row[3] = {r, 7 - r % 3, r % 2 == 0 ? kUnboundTerm : r};
    b.AppendRow(row);
  }
  CandidateMap::Set set;
  ASSERT_TRUE(BuildCandidateSet(b, 1, 3.0, &set));
  EXPECT_EQ(set, (CandidateMap::Set{5, 6, 7}));
  EXPECT_FALSE(BuildCandidateSet(b, 0, 49.0, &set));
  EXPECT_TRUE(BuildCandidateSet(b, 0, 50.0, &set));
  EXPECT_FALSE(BuildCandidateSet(b, 2, 1000.0, &set));
}

TEST(CandidateSetTest, AdmitsAgreesWithAHashSet) {
  Random rng(0x5e7);
  for (int it = 0; it < 200; ++it) {
    const uint64_t domain = rng.Range(1, 2000);
    std::vector<TermId> column(rng.Range(1, 3000));
    for (TermId& v : column) v = static_cast<TermId>(rng.Uniform(domain));
    const std::unordered_set<TermId> reference(column.begin(), column.end());
    CandidateMap::Set set;
    ASSERT_TRUE(BuildCandidateSet(Column(column), 0, 1e9, &set));
    ASSERT_TRUE(std::is_sorted(set.begin(), set.end()));
    ASSERT_EQ(set.size(), reference.size());
    CandidateMap m;
    m.Set_(9, set);
    // Probes in random order, then ascending (the cursor's fast path).
    std::vector<TermId> probes(500);
    for (TermId& p : probes) p = static_cast<TermId>(rng.Uniform(domain + 10));
    for (int pass = 0; pass < 2; ++pass) {
      CandidateCursor cursor(*m.Get(9));
      for (TermId p : probes) {
        const bool want = reference.count(p) > 0;
        ASSERT_EQ(m.Admits(9, p), want) << p;
        ASSERT_EQ(cursor.Contains(p), want) << p;
      }
      std::sort(probes.begin(), probes.end());
    }
    EXPECT_TRUE(m.Admits(10, 12345));  // unconstrained variable
  }
}

TEST(CandidateSetTest, SetNormalizesAndReplaces) {
  CandidateMap m;
  m.Set_(1, {8, 2, 8, 5});
  EXPECT_EQ(*m.Get(1), (CandidateMap::Set{2, 5, 8}));
  m.Set_(1, {4});
  EXPECT_EQ(*m.Get(1), (CandidateMap::Set{4}));
  EXPECT_EQ(m.size(), 1u);
}

/// 500 triples: `typed` subjects of type p:T, each tagged once (the last
/// twice when `double_tag`), and p:rel edges between other nodes filling
/// up the rest. --mode cp's 1% threshold is then exactly 5.0.
std::unique_ptr<Database> ThresholdDb(int typed, bool double_tag) {
  auto db = std::make_unique<Database>();
  auto iri = [](const std::string& s) { return Term::Iri("http://p.org/" + s); };
  int triples = 0;
  for (int i = 1; i <= typed; ++i) {
    const Term a = iri("a" + std::to_string(i));
    db->AddTriple(a, iri("type"), iri("T"));
    db->AddTriple(a, iri("tag"), iri("t" + std::to_string(i)));
    triples += 2;
  }
  if (double_tag) {
    db->AddTriple(iri("a" + std::to_string(typed)), iri("tag"), iri("extra"));
    ++triples;
  }
  for (int i = 0; triples < 500; ++i, ++triples)
    db->AddTriple(iri("x" + std::to_string(i)), iri("rel"),
                  iri("y" + std::to_string(i)));
  db->Finalize(EngineKind::kWco);
  return db;
}

TEST(CandidateThresholdTest, DistinctCountAloneDecidesPruning) {
  const std::string with_tag =
      "PREFIX p: <http://p.org/>\nSELECT * WHERE { ?a p:type p:T . "
      "?a p:tag ?t . OPTIONAL { ?a p:rel ?b } }";
  struct Case {
    int typed;
    bool double_tag;
    bool pruned;
  };
  // 5 rows over 5 values, 6 rows over the same 5 values: both pass the
  // threshold of 5. 6 values do not.
  for (const Case& c : {Case{5, false, true}, Case{5, true, true},
                        Case{6, false, false}}) {
    SCOPED_TRACE("typed=" + std::to_string(c.typed) +
                 " double_tag=" + std::to_string(c.double_tag));
    auto db = ThresholdDb(c.typed, c.double_tag);
    ASSERT_EQ(db->store().size(), 500u);
    ExecMetrics m;
    auto cp = db->Query(with_tag, ExecOptions::CP(), &m);
    auto base = db->Query(with_tag, ExecOptions::Base());
    ASSERT_TRUE(cp.ok() && base.ok());
    EXPECT_TRUE(BagEquals(*cp, *base));
    if (c.pruned) {
      // The OPTIONAL's BGP is pruned to nothing.
      EXPECT_LT(m.bgp.rows_materialized, 30u);
    } else {
      // Unpruned, it materializes every p:rel edge.
      EXPECT_GT(m.bgp.rows_materialized, 480u);
      EXPECT_EQ(m.bgp.candidates_pruned, 0u);
    }
  }
}

TEST_F(PruningTest, PartiallyUnboundColumnsAreNotConstrained) {
  // If the candidate source binds ?b only in some mappings, ?b must stay
  // unconstrained (a UNION padding scenario).
  const std::string q =
      Prefix() +
      "SELECT * WHERE { "
      "{ p:root p:anchorOf ?a . } UNION { p:root p:anchorOf ?a . ?a p:rel1 ?b . } "
      "OPTIONAL { ?b p:rel2 ?c . } }";
  auto base_r = db_.Query(q, ExecOptions::Base());
  ExecOptions cp = ExecOptions::CP();
  cp.fixed_threshold_fraction = 1.0;  // always try to prune
  auto cp_r = db_.Query(q, cp);
  ASSERT_TRUE(base_r.ok() && cp_r.ok());
  EXPECT_TRUE(BagEquals(*base_r, *cp_r));
}

}  // namespace
}  // namespace sparqluo
