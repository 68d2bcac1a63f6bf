#include <gtest/gtest.h>

#include "algebra/operators.h"
#include "baseline/binary_tree_eval.h"
#include "betree/builder.h"
#include "engine/database.h"
#include "optimizer/cost_model.h"
#include "optimizer/join_order.h"
#include "optimizer/transformations.h"
#include "optimizer/transformer.h"
#include "optimizer/well_designed.h"
#include "sparql/parser.h"
#include "workload/dbpedia_generator.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

/// A presidents-style fixture matching the paper's running example: a small
/// selective population (presidents) inside a large one (persons), where
/// every entity carries owl:sameAs / foaf:name / rdfs:label attributes
/// (the full-overlap regime of Figure 7, where pushing a low-selectivity
/// BGP into a UNION cannot shrink the branch results).
class OptimizerTest : public ::testing::Test {
 protected:
  static void Populate(Database* db) {
    auto iri = [](const std::string& s) {
      return Term::Iri("http://ex.org/" + s);
    };
    Term wikilink = iri("wikiPageWikiLink");
    Term potus = iri("President_of_the_United_States");
    Term same = iri("sameAs");
    Term foaf_name = iri("foaf_name");
    Term label = iri("label");
    for (int i = 0; i < 2000; ++i) {
      Term person = iri("person" + std::to_string(i));
      if (i < 10) db->AddTriple(person, wikilink, potus);
      db->AddTriple(person, same, iri("external" + std::to_string(i)));
      db->AddTriple(person, foaf_name,
                    Term::Literal("name" + std::to_string(i)));
      db->AddTriple(person, label, Term::Literal("label" + std::to_string(i)));
    }
  }

  void SetUp() override {
    Populate(&db_);
    db_.Finalize(EngineKind::kWco);
  }

  BeTree Build(const std::string& body, Query* out_q) {
    auto q = ParseQuery("SELECT * WHERE " + body);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    *out_q = std::move(*q);
    return BuildBeTree(*out_q);
  }

  Database db_;
};

constexpr const char* kOptionalQuery =
    "{ ?x <http://ex.org/wikiPageWikiLink> "
    "<http://ex.org/President_of_the_United_States> . "
    "OPTIONAL { ?x <http://ex.org/sameAs> ?same . } }";

constexpr const char* kUnionQuery =
    "{ ?x <http://ex.org/wikiPageWikiLink> "
    "<http://ex.org/President_of_the_United_States> . "
    "{ ?x <http://ex.org/foaf_name> ?name . } UNION "
    "{ ?x <http://ex.org/label> ?name . } }";

// ----------------------------------------------------- Transformations ---

TEST_F(OptimizerTest, CanInjectPreconditions) {
  Query q;
  BeTree t = Build(kOptionalQuery, &q);
  ASSERT_EQ(t.root->children.size(), 2u);
  EXPECT_TRUE(CanInject(*t.root, 0, 1));
  EXPECT_FALSE(CanInject(*t.root, 1, 0));  // OPTIONAL must be to the right
  EXPECT_FALSE(CanInject(*t.root, 0, 0));
}

TEST_F(OptimizerTest, ApplyInjectCopiesBgpIntoOptional) {
  Query q;
  BeTree t = Build(kOptionalQuery, &q);
  ApplyInject(t.root.get(), 0, 1);
  ASSERT_TRUE(t.Validate().ok());
  // The original BGP node remains.
  EXPECT_TRUE(t.root->children[0]->is_bgp());
  EXPECT_EQ(t.root->children[0]->bgp.size(), 1u);
  // The OPTIONAL-right group now holds the coalesced 2-pattern BGP.
  const BeNode& right = *t.root->children[1]->children[0];
  ASSERT_EQ(right.children.size(), 1u);
  EXPECT_EQ(right.children[0]->bgp.size(), 2u);
}

TEST_F(OptimizerTest, InjectPreservesSemantics) {
  Query q;
  BeTree original = Build(kOptionalQuery, &q);
  BeTree injected = original.Clone();
  ApplyInject(injected.root.get(), 0, 1);

  Executor exec(db_.engine(), db_.dict(), db_.store());
  ExecOptions opts;  // no transform, no pruning: evaluate as-is
  BindingSet r1 = exec.EvaluateTree(original, opts);
  BindingSet r2 = exec.EvaluateTree(injected, opts);
  EXPECT_TRUE(BagEquals(r1, r2));
  EXPECT_EQ(r1.size(), 10u);  // every president, each with one sameAs
}

TEST_F(OptimizerTest, CanMergePreconditions) {
  Query q;
  BeTree t = Build(kUnionQuery, &q);
  ASSERT_EQ(t.root->children.size(), 2u);
  EXPECT_TRUE(t.root->children[1]->is_union());
  EXPECT_TRUE(CanMerge(*t.root, 0, 1));
  EXPECT_FALSE(CanMerge(*t.root, 1, 0));
}

TEST_F(OptimizerTest, ApplyMergeRemovesBgpAndDistributes) {
  Query q;
  BeTree t = Build(kUnionQuery, &q);
  ApplyMerge(t.root.get(), 0, 1);
  ASSERT_TRUE(t.Validate().ok());
  // Only the UNION node remains at the top level.
  ASSERT_EQ(t.root->children.size(), 1u);
  ASSERT_TRUE(t.root->children[0]->is_union());
  for (const auto& branch : t.root->children[0]->children) {
    ASSERT_EQ(branch->children.size(), 1u);
    EXPECT_EQ(branch->children[0]->bgp.size(), 2u);  // coalesced
  }
}

TEST_F(OptimizerTest, MergePreservesSemantics) {
  Query q;
  BeTree original = Build(kUnionQuery, &q);
  BeTree merged = original.Clone();
  ApplyMerge(merged.root.get(), 0, 1);

  Executor exec(db_.engine(), db_.dict(), db_.store());
  ExecOptions opts;
  BindingSet r1 = exec.EvaluateTree(original, opts);
  BindingSet r2 = exec.EvaluateTree(merged, opts);
  EXPECT_TRUE(BagEquals(r1, r2));
}

TEST_F(OptimizerTest, MergeRequiresCoalescableBranch) {
  Query q;
  BeTree t = Build(
      "{ ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "{ ?a <http://ex.org/foaf_name> ?n . } UNION "
      "{ ?b <http://ex.org/label> ?n . } }",
      &q);
  // Branch BGPs bind ?a / ?b, not ?x: not coalescable.
  EXPECT_FALSE(CanMerge(*t.root, 0, 1));
}

TEST_F(OptimizerTest, CoalesceGroupBgpsMergesComponents) {
  auto group = std::make_unique<BeNode>(BeNode::Type::kGroup);
  VarTable vars;
  auto mk = [&](const std::string& body) {
    auto g = ParseGroupGraphPattern("{" + body + "}", &vars);
    EXPECT_TRUE(g.ok());
    auto node = std::make_unique<BeNode>(BeNode::Type::kBgp);
    for (const auto& e : g->elements) node->bgp.triples.push_back(e.triple);
    return node;
  };
  group->children.push_back(mk("?x <http://p/a> ?y ."));
  group->children.push_back(mk("?z <http://p/b> ?w ."));
  group->children.push_back(mk("?y <http://p/c> ?z ."));
  CoalesceGroupBgps(group.get());
  // The third BGP bridges the first two: all collapse into one.
  ASSERT_EQ(group->children.size(), 1u);
  EXPECT_EQ(group->children[0]->bgp.size(), 3u);
}

// --------------------------------------------------------- Cost model ----

TEST_F(OptimizerTest, ResultSizeEstimates) {
  Query q;
  BeTree t = Build(kUnionQuery, &q);
  CostModel cost(db_.engine());
  // The anchor BGP has exactly 10 matches (exact count for single pattern).
  EXPECT_DOUBLE_EQ(cost.EstimateResultSize(*t.root->children[0]), 10.0);
  // UNION size = sum of branch sizes = 2000 + 2000.
  double u = cost.EstimateResultSize(*t.root->children[1]);
  EXPECT_NEAR(u, 4000.0, 1.0);
  // Group = product.
  double g = cost.EstimateResultSize(*t.root);
  EXPECT_NEAR(g, 10.0 * 4000.0, 50.0);
}

TEST_F(OptimizerTest, EmptyBgpNodeSizeIsOne) {
  BeNode node(BeNode::Type::kBgp);
  CostModel cost(db_.engine());
  EXPECT_DOUBLE_EQ(cost.EstimateResultSize(node), 1.0);
  EXPECT_DOUBLE_EQ(cost.BgpCost(node.bgp), 0.0);
}

TEST_F(OptimizerTest, FavorableInjectHasNegativeDelta) {
  // Figure 6: selective BGP + large OPTIONAL: inject should pay off.
  Query q;
  BeTree t = Build(kOptionalQuery, &q);
  CostModel cost(db_.engine());
  double delta = DecideInjectDelta(*t.root, 0, 1, cost);
  EXPECT_LT(delta, 0.0);
}

TEST_F(OptimizerTest, UnfavorableMergeHasNonNegativeDelta) {
  // Figure 7: low-selectivity BGP + UNION whose branch joins do not shrink.
  // Under the binary-join host (Jena), merging forces a second full scan of
  // the merged BGP per branch plus two hash joins: not worth it.
  Database db2;
  Populate(&db2);
  db2.Finalize(EngineKind::kHashJoin);
  Query q;
  BeTree t = Build(
      "{ ?x <http://ex.org/sameAs> ?same . "
      "{ ?x <http://ex.org/foaf_name> ?name . } UNION "
      "{ ?x <http://ex.org/label> ?name . } }",
      &q);
  CostModel cost(db2.engine());
  double delta = DecideMergeDelta(*t.root, 0, 1, cost);
  EXPECT_GE(delta, 0.0);
}

TEST_F(OptimizerTest, FavorableMergeHasNegativeDelta) {
  Query q;
  BeTree t = Build(kUnionQuery, &q);
  CostModel cost(db_.engine());
  EXPECT_LT(DecideMergeDelta(*t.root, 0, 1, cost), 0.0);
}

// ---------------------------------------------- Multi-level transform ----

TEST_F(OptimizerTest, MultiLevelTransformAppliesFavorableOnly) {
  Query q;
  BeTree t = Build(kUnionQuery, &q);
  CostModel cost(db_.engine());
  TransformStats stats;
  MultiLevelTransform(&t, cost, TransformOptions{}, &stats);
  EXPECT_EQ(stats.merges, 1u);
  ASSERT_TRUE(t.Validate().ok());

  Database db2;
  Populate(&db2);
  db2.Finalize(EngineKind::kHashJoin);
  CostModel cost2(db2.engine());
  Query q2;
  BeTree t2 = Build(
      "{ ?x <http://ex.org/sameAs> ?same . "
      "{ ?x <http://ex.org/foaf_name> ?name . } UNION "
      "{ ?x <http://ex.org/label> ?name . } }",
      &q2);
  TransformStats stats2;
  MultiLevelTransform(&t2, cost2, TransformOptions{}, &stats2);
  EXPECT_EQ(stats2.merges, 0u);
}

TEST_F(OptimizerTest, TransformedTreePreservesSemantics) {
  const char* queries[] = {kOptionalQuery, kUnionQuery,
                           "{ ?x <http://ex.org/wikiPageWikiLink> "
                           "<http://ex.org/President_of_the_United_States> . "
                           "OPTIONAL { ?x <http://ex.org/sameAs> ?s . "
                           "OPTIONAL { ?x <http://ex.org/foaf_name> ?n . } } }"};
  CostModel cost(db_.engine());
  Executor exec(db_.engine(), db_.dict(), db_.store());
  for (const char* body : queries) {
    Query q;
    BeTree t = Build(body, &q);
    BindingSet before = exec.EvaluateTree(t, ExecOptions{});
    TransformStats stats;
    MultiLevelTransform(&t, cost, TransformOptions{}, &stats);
    ASSERT_TRUE(t.Validate().ok());
    BindingSet after = exec.EvaluateTree(t, ExecOptions{});
    EXPECT_TRUE(BagEquals(before, after)) << body;
  }
}

TEST_F(OptimizerTest, CpEquivalentLevelSkipped) {
  Query q;
  BeTree t = Build(kOptionalQuery, &q);
  CostModel cost(db_.engine());
  TransformOptions opts;
  opts.skip_cp_equivalent_levels = true;
  TransformStats stats;
  MultiLevelTransform(&t, cost, opts, &stats);
  EXPECT_EQ(stats.injects, 0u);
  EXPECT_GE(stats.levels_skipped_cp, 1u);
}

// ------------------------------------------------- Theorems 1 and 2 ------

TEST_F(OptimizerTest, Theorem1MergeEquivalenceOnData) {
  // [[P1 AND (P2 UNION P3)]] == [[(P1 AND P2) UNION (P1 AND P3)]]
  BinaryTreeEvaluator oracle(db_.store(), db_.dict());
  auto lhs = ParseQuery(
      "SELECT * WHERE { ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "{ ?x <http://ex.org/foaf_name> ?n . } UNION "
      "{ ?x <http://ex.org/label> ?n . } }");
  auto rhs = ParseQuery(
      "SELECT * WHERE { { ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "?x <http://ex.org/foaf_name> ?n . } UNION "
      "{ ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "?x <http://ex.org/label> ?n . } }");
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  auto r1 = oracle.Execute(*lhs);
  auto r2 = oracle.Execute(*rhs);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // Same variable ids in both queries (same intern order: x, n).
  EXPECT_TRUE(BagEquals(*r1, *r2));
}

TEST_F(OptimizerTest, Theorem2InjectEquivalenceOnData) {
  // [[P1 OPTIONAL P2]] == [[P1 OPTIONAL (P1 AND P2)]]
  BinaryTreeEvaluator oracle(db_.store(), db_.dict());
  auto lhs = ParseQuery(
      "SELECT * WHERE { ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "OPTIONAL { ?x <http://ex.org/sameAs> ?s . } }");
  auto rhs = ParseQuery(
      "SELECT * WHERE { ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "OPTIONAL { ?x <http://ex.org/wikiPageWikiLink> "
      "<http://ex.org/President_of_the_United_States> . "
      "?x <http://ex.org/sameAs> ?s . } }");
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  auto r1 = oracle.Execute(*lhs);
  auto r2 = oracle.Execute(*rhs);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(BagEquals(*r1, *r2));
}

// --------------------------------- Guards: certain variables only -----

/// Merge and inject must not relocate P1 = `?a :p ?x` into a group whose
/// OPTIONAL { ?x :q ?y } sees ?x as bound only because one UNION branch
/// (`?a :u ?x`, matching nothing here) could bind it. On this data that
/// OPTIONAL matches only while ?x is unbound, so re-basing it on P1 changes
/// the answer.
class CertainGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto iri = [](const std::string& s) {
      return Term::Iri("http://ex.org/" + s);
    };
    db_.AddTriple(iri("a1"), iri("p"), iri("x1"));
    db_.AddTriple(iri("a1"), iri("t"), iri("b1"));
    db_.AddTriple(iri("a1"), iri("v"), iri("w1"));
    db_.AddTriple(iri("x2"), iri("q"), iri("y2"));
    db_.Finalize(EngineKind::kWco);
  }

  /// The BE-tree of `body`, whose root children 0 and 1 are the guard's
  /// BGP and its UNION or OPTIONAL sibling.
  BeTree Build(const std::string& body) {
    auto q = db_.Parse("SELECT * WHERE " + body);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return BuildBeTree(*q);
  }

  /// Every execution mode answers `body` as the binary-tree oracle does:
  /// one row with `bound` bound cells.
  void ExpectModesMatchOracle(const std::string& body, size_t bound) {
    BinaryTreeEvaluator oracle(db_.store(), db_.dict());
    auto want = oracle.Execute(*db_.Parse("SELECT * WHERE " + body));
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(want->size(), 1u);
    size_t cells = 0;
    for (size_t c = 0; c < want->width(); ++c)
      cells += want->Row(0)[c] != kUnboundTerm;
    EXPECT_EQ(cells, bound);
    for (const ExecOptions& opts : {ExecOptions::Base(), ExecOptions::TT(),
                                    ExecOptions::CP(), ExecOptions::Full()}) {
      auto got = db_.Query("SELECT * WHERE " + body, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BagEquals(*want, *got))
          << "tree_transform=" << opts.tree_transform
          << " candidate_pruning=" << opts.candidate_pruning;
    }
  }

  Database db_;
};

constexpr const char* kUncertainBody =
    "{ ?a <http://ex.org/t> ?b . "
    "{ ?a <http://ex.org/u> ?x } UNION { ?a <http://ex.org/v> ?w } "
    "OPTIONAL { ?x <http://ex.org/q> ?y } }";

TEST_F(CertainGuardTest, InjectSkipsVariableBoundInOneUnionBranch) {
  const std::string body =
      std::string("{ ?a <http://ex.org/p> ?x . OPTIONAL ") + kUncertainBody +
      " }";
  BeTree t = Build(body);
  ASSERT_TRUE(t.root->children[1]->is_optional());
  EXPECT_FALSE(CanInject(*t.root, 0, 1));
  ExpectModesMatchOracle(body, 2);
}

TEST_F(CertainGuardTest, MergeSkipsVariableBoundInOneUnionBranch) {
  const std::string body = std::string("{ ?a <http://ex.org/p> ?x . ") +
                           kUncertainBody +
                           " UNION { ?a <http://ex.org/t> ?b } }";
  BeTree t = Build(body);
  ASSERT_TRUE(t.root->children[1]->is_union());
  EXPECT_FALSE(CanMerge(*t.root, 0, 1));
  ExpectModesMatchOracle(body, 3);
}

// ------------------------------------------------ OPTIONAL postponement ---

/// `node` rendered with the children of every join run (BGP, group, UNION,
/// path) sorted: two trees render alike iff they differ only by
/// permutations within join runs, the one change OrderJoinRuns makes when
/// it postpones no OPTIONAL.
std::string RunInsensitiveShape(const BeNode& node, const VarTable& vars) {
  if (node.children.empty()) return DebugString(BeTree(node.Clone()), vars);
  std::string out(1, "GBUOFP"[static_cast<int>(node.type)]);
  out += "(";
  std::vector<std::string> run;
  auto flush = [&] {
    std::sort(run.begin(), run.end());
    for (const std::string& s : run) out += s + ",";
    run.clear();
  };
  for (const auto& c : node.children) {
    std::string s = RunInsensitiveShape(*c, vars);
    if (node.is_group() && !c->is_optional() && !c->is_filter()) {
      run.push_back(std::move(s));
    } else {
      flush();
      out += s + ",";
    }
  }
  flush();
  return out + ")";
}

class PostponeTest : public OptimizerTest {
 protected:
  /// The pass must postpone nothing in `body` and change no more than the
  /// order inside join runs.
  void ExpectUnchanged(const std::string& body) {
    Query q;
    BeTree before = Build(body, &q);
    BeTree after = before.Clone();
    JoinOrderStats stats = OrderJoinRuns(&after, CostModel(db_.engine()));
    EXPECT_EQ(stats.optionals_postponed, 0u) << body;
    EXPECT_EQ(RunInsensitiveShape(*after.root, q.vars),
              RunInsensitiveShape(*before.root, q.vars))
        << body;
  }
};

// LUBM q2.2: three groups, each a BGP plus one OPTIONAL whose body shares
// only variables its BGP binds. All three OPTIONALs move past the run, in
// query order, and each group keeps only its BGP.
TEST_F(PostponeTest, Q22ShapePostponesAllThreeOptionals) {
  auto q = ParseQuery(FindQuery(LubmPaperQueries(), "q2.2")->sparql);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  BeTree tree = BuildBeTree(*q);
  JoinOrderStats stats = OrderJoinRuns(&tree, CostModel(db_.engine()));
  ASSERT_TRUE(tree.Validate().ok());
  EXPECT_EQ(stats.optionals_postponed, 3u);
  const auto& kids = tree.root->children;
  ASSERT_EQ(kids.size(), 6u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(kids[i]->is_group());
    ASSERT_EQ(kids[i]->children.size(), 1u);
    EXPECT_TRUE(kids[i]->children[0]->is_bgp());
  }
  const char* first_body_var[] = {"ste", "head", "univ1"};
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(kids[3 + i]->is_optional());
    std::vector<VarId> body;
    kids[3 + i]->CollectVariables(&body);
    EXPECT_NE(std::find(body.begin(), body.end(),
                        q->vars.Lookup(first_body_var[i])),
              body.end())
        << "OPTIONAL " << i << " is out of query order";
  }
}

// An OPTIONAL that received a postponed OPTIONAL from below hands it on
// up: the pass runs bottom-up, and every move past a run counts.
TEST_F(PostponeTest, PostponesAcrossLevels) {
  Query q;
  BeTree tree = Build(
      "{ { { ?a <http://ex.org/p> ?b . OPTIONAL { ?b <http://ex.org/q> ?c } } "
      "?a <http://ex.org/r> ?d . } ?a <http://ex.org/s> ?e . }",
      &q);
  JoinOrderStats stats = OrderJoinRuns(&tree, CostModel(db_.engine()));
  EXPECT_EQ(stats.optionals_postponed, 2u);
  ASSERT_EQ(tree.root->children.size(), 3u);
  EXPECT_TRUE(tree.root->children[2]->is_optional());
}

// The well-designedness analyzer accepts this pattern, but ?v is bound in
// only one UNION branch, so it is not certain in what the group keeps:
// moving the OPTIONAL would change the answer.
TEST_F(PostponeTest, UnionBoundInOneBranchIsNotCertain) {
  const std::string p = "<http://ex.org/";
  const std::string written =
      "{ { { ?a " + p + "headOf> ?v } UNION { ?a " + p + "teacherOf> ?w } "
      "OPTIONAL { ?x " + p + "worksFor> ?v } } { ?y " + p + "memberOf> ?v } }";
  const std::string moved =
      "{ { { ?a " + p + "headOf> ?v } UNION { ?a " + p + "teacherOf> ?w } } "
      "{ ?y " + p + "memberOf> ?v } OPTIONAL { ?x " + p + "worksFor> ?v } }";
  auto q = ParseQuery("SELECT * WHERE " + written);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(IsWellDesigned(*q));
  ExpectUnchanged(written);

  // d3 has a member but no worker: the moved form pads a row for it that
  // the written form never produces.
  Database db;
  auto iri = [](const std::string& s) {
    return Term::Iri("http://ex.org/" + s);
  };
  db.AddTriple(iri("a1"), iri("headOf"), iri("d1"));
  db.AddTriple(iri("a2"), iri("teacherOf"), iri("c1"));
  db.AddTriple(iri("x1"), iri("worksFor"), iri("d1"));
  db.AddTriple(iri("x2"), iri("worksFor"), iri("d2"));
  db.AddTriple(iri("y1"), iri("memberOf"), iri("d1"));
  db.AddTriple(iri("y2"), iri("memberOf"), iri("d2"));
  db.AddTriple(iri("y3"), iri("memberOf"), iri("d3"));
  db.Finalize(EngineKind::kWco);
  BinaryTreeEvaluator oracle(db.store(), db.dict());
  auto r1 = oracle.Execute(*db.Parse("SELECT * WHERE " + written));
  auto r2 = oracle.Execute(*db.Parse("SELECT * WHERE " + moved));
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->size(), 3u);
  EXPECT_EQ(r2->size(), 4u);
  auto got = db.Query("SELECT * WHERE " + written, ExecOptions::Full());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BagEquals(*r1, *got));
}

// ?c is bound on the left only under an earlier OPTIONAL.
TEST_F(PostponeTest, VariableBoundOnlyUnderEarlierOptionalIsNotCertain) {
  ExpectUnchanged(
      "{ { ?a <http://ex.org/p> ?b . OPTIONAL { ?a <http://ex.org/q> ?c } "
      "?a <http://ex.org/s> ?e . OPTIONAL { ?c <http://ex.org/r> ?d } } "
      "{ ?a <http://ex.org/u> ?c } }");
}

// ?y also occurs in an OPTIONAL of the parent, before the run.
TEST_F(PostponeTest, BodyVariableSharedWithEarlierParentOptional) {
  ExpectUnchanged(
      "{ ?a <http://ex.org/p> ?b . OPTIONAL { ?b <http://ex.org/q> ?y } "
      "{ ?a <http://ex.org/r> ?c . OPTIONAL { ?c <http://ex.org/s> ?y } } "
      "{ ?a <http://ex.org/t> ?d } }");
}

// A FILTER ends the child group, so it has no trailing OPTIONALs.
TEST_F(PostponeTest, ChildGroupEndingInFilterKeepsItsOptionals) {
  ExpectUnchanged(
      "{ { ?a <http://ex.org/p> ?b . OPTIONAL { ?b <http://ex.org/q> ?c } "
      "FILTER(BOUND(?c)) } { ?b <http://ex.org/r> ?d } }");
}

// A run of one join child has nothing to postpone past.
TEST_F(PostponeTest, SingleChildRunKeepsItsOptionals) {
  ExpectUnchanged(
      "{ { ?a <http://ex.org/p> ?b . OPTIONAL { ?b <http://ex.org/q> ?c } } "
      "OPTIONAL { ?a <http://ex.org/r> ?d } }");
}

// OPTIONALs move only out of child groups, never out of a UNION branch.
TEST_F(PostponeTest, OptionalNeverLeavesUnionBranch) {
  ExpectUnchanged(
      "{ { ?a <http://ex.org/p> ?b . OPTIONAL { ?b <http://ex.org/q> ?c } } "
      "UNION { ?a <http://ex.org/r> ?b } ?a <http://ex.org/s> ?d . }");
}

// The pass moves OPTIONALs only in LUBM q2.1-q2.3: every other paper query
// keeps the plan it had without postponement, up to the order inside join
// runs, under both pruning modes. The planner's output is the pipeline
// rebuilt here.
TEST(PostponePaperQueries, OnlyLubmQ21ToQ23Change) {
  Database lubm;
  LubmConfig lcfg;
  GenerateLubm(lcfg, &lubm);
  lubm.Finalize(EngineKind::kWco);
  Database dbpedia;
  DbpediaConfig dcfg;
  dcfg.articles = 3000;
  GenerateDbpedia(dcfg, &dbpedia);
  dbpedia.Finalize(EngineKind::kWco);

  for (const ExecOptions& opts : {ExecOptions::CP(), ExecOptions::Full()}) {
    for (bool is_lubm : {true, false}) {
      Database& db = is_lubm ? lubm : dbpedia;
      CostModel cost(db.engine());
      for (const PaperQuery& pq :
           is_lubm ? LubmPaperQueries() : DbpediaPaperQueries()) {
        const std::string name =
            std::string(is_lubm ? "lubm " : "dbpedia ") + pq.id + " " +
            opts.Name();
        auto q = db.Parse(pq.sparql);
        ASSERT_TRUE(q.ok()) << name;
        BeTree tree = BuildBeTree(*q);
        if (opts.tree_transform) {
          TransformOptions topt;
          topt.skip_cp_equivalent_levels = true;
          MultiLevelTransform(&tree, cost, topt, nullptr);
        }
        const std::string before = RunInsensitiveShape(*tree.root, q->vars);
        JoinOrderStats stats = OrderJoinRuns(&tree, cost);
        ExecMetrics m;
        EXPECT_EQ(DebugString(db.executor().Plan(*q, opts, &m), q->vars),
                  DebugString(tree, q->vars))
            << name;
        EXPECT_EQ(m.optionals_postponed, stats.optionals_postponed) << name;
        const bool moves = is_lubm && (pq.id == "q2.1" || pq.id == "q2.2" ||
                                       pq.id == "q2.3");
        if (moves) {
          EXPECT_GT(stats.optionals_postponed, 0u) << name;
        } else {
          EXPECT_EQ(stats.optionals_postponed, 0u) << name;
          EXPECT_EQ(RunInsensitiveShape(*tree.root, q->vars), before) << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sparqluo
