// Property-based tests: random graphs x random SPARQL-UO queries, checking
// the core invariants:
//   1. base == TT == CP == full == binary-tree oracle (as bags)
//   2. Theorems 1 and 2 hold on random patterns
//   3. merge/inject preserve BE-tree validity and evaluation results
//   4. serializer round-trip preserves plan structure
//   5. OPTIONAL postponement moves exactly the safe OPTIONALs, and the
//      answers still match the oracle
#include <gtest/gtest.h>

#include <sstream>

#include "algebra/operators.h"
#include "baseline/binary_tree_eval.h"
#include "betree/builder.h"
#include "betree/serializer.h"
#include "engine/database.h"
#include "optimizer/transformations.h"
#include "sparql/parser.h"
#include "util/random.h"

namespace sparqluo {
namespace {

/// Generates a small random graph over `n_nodes` nodes and `n_preds`
/// predicates, with skewed attribute coverage.
void RandomGraph(Random* rng, size_t n_nodes, size_t n_preds, size_t n_edges,
                 Database* db) {
  auto node = [](uint64_t i) {
    return Term::Iri("http://g/n" + std::to_string(i));
  };
  auto pred = [](uint64_t i) {
    return Term::Iri("http://g/p" + std::to_string(i));
  };
  for (size_t e = 0; e < n_edges; ++e) {
    db->AddTriple(node(rng->Uniform(n_nodes)), pred(rng->Uniform(n_preds)),
                  node(rng->Uniform(n_nodes)));
  }
  // Some literal attributes.
  for (size_t i = 0; i < n_nodes; ++i) {
    if (rng->Bernoulli(0.5))
      db->AddTriple(node(i), pred(n_preds), Term::Literal("v" + std::to_string(i % 5)));
  }
}

/// Generates a random SPARQL-UO group graph pattern over variables
/// ?v0..?v5 and predicates p0..pN. Depth-bounded.
std::string RandomPattern(Random* rng, size_t n_preds, int depth) {
  auto var = [&]() { return "?v" + std::to_string(rng->Uniform(6)); };
  auto pred = [&]() {
    return "<http://g/p" + std::to_string(rng->Uniform(n_preds + 1)) + ">";
  };
  auto triple = [&]() { return var() + " " + pred() + " " + var() + " . "; };

  std::string out = "{ ";
  size_t n_elems = rng->Range(1, 3);
  for (size_t i = 0; i < n_elems; ++i) {
    double roll = rng->NextDouble();
    if (depth <= 0 || roll < 0.55) {
      out += triple();
    } else if (roll < 0.75) {
      out += RandomPattern(rng, n_preds, depth - 1) + " UNION " +
             RandomPattern(rng, n_preds, depth - 1) + " ";
    } else if (roll < 0.95) {
      out += "OPTIONAL " + RandomPattern(rng, n_preds, depth - 1) + " ";
    } else {
      out += RandomPattern(rng, n_preds, depth - 1) + " ";
    }
  }
  out += "}";
  return out;
}

class PropertyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 12));

TEST_P(PropertyTest, AllApproachesMatchOracleOnRandomQueries) {
  Random rng(1000 + static_cast<uint64_t>(GetParam()));
  Database db;
  RandomGraph(&rng, 30, 3, 90, &db);
  db.Finalize(GetParam() % 2 == 0 ? EngineKind::kWco : EngineKind::kHashJoin);
  BinaryTreeEvaluator oracle(db.store(), db.dict());

  for (int trial = 0; trial < 8; ++trial) {
    std::string body = RandomPattern(&rng, 3, 2);
    std::string text = "SELECT * WHERE " + body;
    auto q = db.Parse(text);
    ASSERT_TRUE(q.ok()) << text;
    auto expected = oracle.Execute(*q);
    ASSERT_TRUE(expected.ok());
    // Cap pathological cross products for test time.
    if (expected->size() > 200000) continue;
    for (const ExecOptions& opts :
         {ExecOptions::Base(), ExecOptions::TT(), ExecOptions::CP(),
          ExecOptions::Full()}) {
      auto got = db.Query(text, opts);
      ASSERT_TRUE(got.ok()) << text << " under " << opts.Name();
      EXPECT_TRUE(BagEquals(*expected, *got))
          << "query: " << text << "\napproach: " << opts.Name()
          << "\nexpected " << expected->size() << " rows, got " << got->size();
    }
  }
}

TEST_P(PropertyTest, Theorem1OnRandomData) {
  // [[P1 AND (P2 UNION P3)]] == [[(P1 AND P2) UNION (P1 AND P3)]]
  Random rng(2000 + static_cast<uint64_t>(GetParam()));
  Database db;
  RandomGraph(&rng, 25, 3, 70, &db);
  db.Finalize(EngineKind::kWco);
  BinaryTreeEvaluator oracle(db.store(), db.dict());

  for (int trial = 0; trial < 5; ++trial) {
    auto tp = [&]() {
      return "?v" + std::to_string(rng.Uniform(4)) + " <http://g/p" +
             std::to_string(rng.Uniform(3)) + "> ?v" +
             std::to_string(rng.Uniform(4)) + " . ";
    };
    std::string p1 = tp(), p2 = tp(), p3 = tp();
    auto lhs = db.Parse("SELECT * WHERE { " + p1 + " { " + p2 + " } UNION { " +
                        p3 + " } }");
    auto rhs = db.Parse("SELECT * WHERE { { " + p1 + p2 + " } UNION { " + p1 +
                        p3 + " } }");
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    auto r1 = oracle.Execute(*lhs);
    auto r2 = oracle.Execute(*rhs);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_TRUE(BagEquals(*r1, *r2)) << p1 << "|" << p2 << "|" << p3;
  }
}

TEST_P(PropertyTest, Theorem2OnRandomData) {
  // [[P1 OPTIONAL P2]] == [[P1 OPTIONAL (P1 AND P2)]]
  Random rng(3000 + static_cast<uint64_t>(GetParam()));
  Database db;
  RandomGraph(&rng, 25, 3, 70, &db);
  db.Finalize(EngineKind::kWco);
  BinaryTreeEvaluator oracle(db.store(), db.dict());

  for (int trial = 0; trial < 5; ++trial) {
    auto tp = [&]() {
      return "?v" + std::to_string(rng.Uniform(4)) + " <http://g/p" +
             std::to_string(rng.Uniform(3)) + "> ?v" +
             std::to_string(rng.Uniform(4)) + " . ";
    };
    std::string p1 = tp(), p2 = tp();
    auto lhs =
        db.Parse("SELECT * WHERE { " + p1 + " OPTIONAL { " + p2 + " } }");
    auto rhs = db.Parse("SELECT * WHERE { " + p1 + " OPTIONAL { " + p1 + p2 +
                        " } }");
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    auto r1 = oracle.Execute(*lhs);
    auto r2 = oracle.Execute(*rhs);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_TRUE(BagEquals(*r1, *r2)) << p1 << "|" << p2;
  }
}

TEST_P(PropertyTest, RandomTransformationsPreserveValidityAndResults) {
  Random rng(4000 + static_cast<uint64_t>(GetParam()));
  Database db;
  RandomGraph(&rng, 30, 3, 90, &db);
  db.Finalize(EngineKind::kWco);
  Executor exec(db.engine(), db.dict(), db.store());

  for (int trial = 0; trial < 6; ++trial) {
    std::string text = "SELECT * WHERE " + RandomPattern(&rng, 3, 2);
    auto q = db.Parse(text);
    ASSERT_TRUE(q.ok());
    BeTree tree = BuildBeTree(*q);
    ASSERT_TRUE(tree.Validate().ok());
    BindingSet before = exec.EvaluateTree(tree, ExecOptions{});
    if (before.size() > 200000) continue;

    // Apply every applicable transformation at the root level, randomly.
    BeNode* root = tree.root.get();
    for (size_t i = 0; i < root->children.size(); ++i) {
      for (size_t j = 0; j < root->children.size(); ++j) {
        if (rng.Bernoulli(0.5) && CanMerge(*root, i, j)) {
          ApplyMerge(root, i, j);
          i = SIZE_MAX;  // restart outer loop: indices shifted
          break;
        }
        if (rng.Bernoulli(0.5) && CanInject(*root, i, j)) {
          ApplyInject(root, i, j);
        }
      }
      if (i == SIZE_MAX) continue;
    }
    ASSERT_TRUE(tree.Validate().ok()) << text;
    BindingSet after = exec.EvaluateTree(tree, ExecOptions{});
    EXPECT_TRUE(BagEquals(before, after)) << text;
  }
}

TEST_P(PropertyTest, SerializerRoundTripOnRandomPlans) {
  Random rng(5000 + static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 10; ++trial) {
    std::string text = "SELECT * WHERE " + RandomPattern(&rng, 3, 2);
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    BeTree t1 = BuildBeTree(*q);
    std::string serialized = SerializeToQuery(t1, q->vars);
    auto q2 = ParseQuery(serialized);
    ASSERT_TRUE(q2.ok()) << serialized;
    BeTree t2 = BuildBeTree(*q2);
    EXPECT_EQ(DebugString(t1, q->vars), DebugString(t2, q2->vars))
        << "original: " << text << "\nserialized: " << serialized;
  }
}

TEST_P(PropertyTest, CandidatePruningInvariantUnderThresholds) {
  // Any threshold setting must leave results unchanged.
  Random rng(6000 + static_cast<uint64_t>(GetParam()));
  Database db;
  RandomGraph(&rng, 30, 3, 90, &db);
  db.Finalize(EngineKind::kWco);

  std::string text = "SELECT * WHERE " + RandomPattern(&rng, 3, 2);
  auto base = db.Query(text, ExecOptions::Base());
  ASSERT_TRUE(base.ok()) << text;
  for (double frac : {0.0, 0.001, 0.05, 0.5, 1.0}) {
    ExecOptions opts = ExecOptions::CP();
    opts.fixed_threshold_fraction = frac;
    auto got = db.Query(text, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(BagEquals(*base, *got)) << text << " frac=" << frac;
  }
}

/// A parent group of 2-3 child groups for OPTIONAL postponement. Every
/// child joins on ?j and ends in 1-2 OPTIONALs. A safe child's bodies use
/// only its own mandatory variables and OPTIONAL-only ones, so all of them
/// move. A near miss keeps all of its OPTIONALs: either a body variable
/// (?n) also occurs in a sibling but not in the child's mandatory part, or
/// ?j is bound in only one branch of the child's UNION.
struct PostponeCase {
  std::string text;
  size_t movable = 0;  ///< OPTIONALs the pass must postpone.
};

PostponeCase RandomPostponeCase(Random* rng, size_t n_preds, bool safe) {
  auto pred = [&]() {
    return " <http://g/p" + std::to_string(rng->Uniform(n_preds)) + "> ";
  };
  PostponeCase out;
  const size_t n_children = rng->Range(2, 3);
  // In a near-miss case one child misses; which kind is chosen per case.
  const size_t miss = safe ? SIZE_MAX : rng->Uniform(n_children);
  const bool miss_by_union = rng->Bernoulli(0.5);
  std::string body;
  for (size_t c = 0; c < n_children; ++c) {
    const std::string a = "?a" + std::to_string(c);
    const std::string o = "?o" + std::to_string(c) + "_";
    std::string child = "{ ";
    if (c == miss && miss_by_union) {
      child += "{ ?j" + pred() + a + " } UNION { " + a + pred() + "?u" +
               std::to_string(c) + " } ";
    } else {
      child += "?j" + pred() + a + " . ";
    }
    if (rng->Bernoulli(0.5)) child += a + pred() + "?b" + std::to_string(c) + " . ";
    // The sibling that binds ?n in its mandatory part (a safe child).
    if (miss != SIZE_MAX && !miss_by_union && c == (miss + 1) % n_children)
      child += a + pred() + "?n . ";
    const size_t n_opts = rng->Range(1, 2);
    for (size_t k = 0; k < n_opts; ++k) {
      std::string v = o + std::to_string(k);
      std::string opt;
      if (c == miss && k + 1 == n_opts) {
        opt = miss_by_union ? "?j" + pred() + v : a + pred() + "?n";
      } else {
        // The second body may build on the first: both stay in one child.
        std::string from = k > 0 && rng->Bernoulli(0.5) ? o + "0" : a;
        opt = from + pred() + v;
      }
      child += "OPTIONAL { " + opt + " } ";
    }
    if (c != miss) out.movable += n_opts;
    body += child + "} ";
  }
  out.text = "SELECT * WHERE { " + body + "}";
  return out;
}

TEST_P(PropertyTest, OptionalPostponementMatchesOracle) {
  Random rng(7000 + static_cast<uint64_t>(GetParam()));
  Database wco, hash;
  for (Database* db : {&wco, &hash}) {
    Random graph(7500 + static_cast<uint64_t>(GetParam()));
    RandomGraph(&graph, 30, 3, 90, db);
  }
  wco.Finalize(EngineKind::kWco);
  hash.Finalize(EngineKind::kHashJoin);
  BinaryTreeEvaluator oracle(wco.store(), wco.dict());

  for (int trial = 0; trial < 8; ++trial) {
    const bool safe = trial % 2 == 0;
    PostponeCase pc = RandomPostponeCase(&rng, 3, safe);
    auto q = wco.Parse(pc.text);
    ASSERT_TRUE(q.ok()) << pc.text;
    auto expected = oracle.Execute(*q);
    ASSERT_TRUE(expected.ok());
    for (Database* db : {&wco, &hash}) {
      for (const ExecOptions& opts :
           {ExecOptions::Base(), ExecOptions::TT(), ExecOptions::CP(),
            ExecOptions::Full()}) {
        ExecMetrics metrics;
        auto got = db->Query(pc.text, opts, &metrics);
        ASSERT_TRUE(got.ok()) << pc.text << " under " << opts.Name();
        EXPECT_TRUE(BagEquals(*expected, *got))
            << "query: " << pc.text << "\napproach: " << opts.Name()
            << "\nexpected " << expected->size() << " rows, got "
            << got->size();
        if (opts.candidate_pruning && !opts.tree_transform)
          EXPECT_EQ(metrics.optionals_postponed, pc.movable) << pc.text;
      }
    }
  }
}

}  // namespace
}  // namespace sparqluo
