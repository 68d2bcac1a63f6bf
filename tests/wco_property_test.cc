// Seeded property test of the WCO engine's general path: random 1-5
// pattern BGPs over a small graph (self-loops, repeated variables,
// constants, ground triples, variable predicates, candidate sets on any
// variable), each checked three ways:
//
//   1. WcoEngine::Evaluate == HashJoinEngine::Evaluate as row bags;
//   2. Evaluate with a ParallelSpec at parallelism 1/2/8 and morsels of
//      1/64 rows is bit-identical to Evaluate without one (schema, cells,
//      row order);
//   3. the rows come out strictly ascending in RowOrder: extension alone
//      keeps them so, which is what lets the engine skip the final sort
//      when no variable predicate (residual pattern) follows; residual
//      expansion needs that sort.
//
// Every case is replayable: the seed derives from SPARQLUO_WCO_SEED
// (default below) and each failure message carries the iteration's seed
// and BGP, so a divergence reproduces with
//   SPARQLUO_WCO_SEED=<seed> ./wco_property_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bgp/hashjoin_engine.h"
#include "bgp/wco_engine.h"
#include "engine/database.h"
#include "sparql/parser.h"
#include "util/executor_pool.h"
#include "util/random.h"

namespace sparqluo {
namespace {

constexpr uint64_t kDefaultSeed = 0x3c0e5eedULL;
constexpr int kIterations = 5000;
constexpr size_t kNodes = 8;
constexpr size_t kPreds = 3;

uint64_t BaseSeed() {
  const char* env = std::getenv("SPARQLUO_WCO_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 0);
  return kDefaultSeed;
}

std::string Node(uint64_t i) { return "<http://g/n" + std::to_string(i) + ">"; }
std::string Pred(uint64_t i) { return "<http://g/p" + std::to_string(i) + ">"; }

/// Rows of `b` in stored order, each over b's schema.
std::vector<std::vector<TermId>> RowsInOrder(const BindingSet& b) {
  std::vector<std::vector<TermId>> rows(b.size());
  for (size_t r = 0; r < b.size(); ++r)
    for (size_t c = 0; c < b.width(); ++c) rows[r].push_back(b.At(r, c));
  return rows;
}

class WcoPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Random edges plus a few self-loops, fixed per run.
    Random rng(7);
    for (int i = 0; i < 40; ++i)
      AddTriple(Node(rng.Uniform(kNodes)), Pred(rng.Uniform(kPreds)),
                Node(rng.Uniform(kNodes)));
    for (int i = 0; i < 6; ++i) {
      std::string n = Node(rng.Uniform(kNodes));
      AddTriple(n, Pred(rng.Uniform(kPreds)), n);
    }
    for (size_t i = 0; i < kNodes; i += 2)
      AddTriple(Node(i), Pred(kPreds), "\"v" + std::to_string(i % 3) + "\"");
    ASSERT_TRUE(db_.LoadNTriplesString(nt_).ok());
    db_.Finalize(EngineKind::kWco);
  }

  void AddTriple(const std::string& s, const std::string& p,
                 const std::string& o) {
    triples_.push_back(s + " " + p + " " + o + " .");
    nt_ += triples_.back() + "\n";
  }

  Bgp ParseBgp(const std::string& body) {
    auto g = ParseGroupGraphPattern("{ " + body + " }", &vars_);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    Bgp bgp;
    if (!g.ok()) return bgp;
    for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
    return bgp;
  }

  /// A random BGP body.
  std::string RandomBgp(Random* rng) {
    auto so_var = [&] { return "?v" + std::to_string(rng->Uniform(4)); };
    auto so_term = [&]() -> std::string {
      if (rng->Bernoulli(0.75)) return so_var();
      // An absent constant now and then: the BGP cannot match.
      if (rng->Bernoulli(0.05)) return "<http://g/absent>";
      return Node(rng->Uniform(kNodes));
    };
    std::string body;
    const size_t n = rng->Range(1, 5);
    for (size_t i = 0; i < n; ++i) {
      if (rng->Bernoulli(0.08)) {
        // Ground triple: one of the graph's, or a random (likely absent) one.
        body += rng->Bernoulli(0.5)
                    ? triples_[rng->Uniform(triples_.size())]
                    : Node(rng->Uniform(kNodes)) + " " +
                          Pred(rng->Uniform(kPreds)) + " " +
                          Node(rng->Uniform(kNodes)) + " .";
        body += " ";
        continue;
      }
      std::string s = so_term();
      std::string p;
      const double roll = rng->NextDouble();
      if (roll < 0.7) {
        p = Pred(rng->Uniform(kPreds + 1));
      } else {
        // Variable predicates mostly share ?v4, so later residual patterns
        // scan with their predicate bound and list new (s, o) pairs in
        // (o, s) order: only the final sort puts those rows in order.
        p = roll < 0.85 ? "?v4" : roll < 0.93 ? "?v5" : so_var();
      }
      std::string o = s[0] == '?' && rng->Bernoulli(0.2) ? s : so_term();
      body += s + " " + p + " " + o + " . ";
    }
    return body;
  }

  /// Random candidate sets on some of `vars`: ids drawn from the whole
  /// dictionary plus a few past its end (never matched).
  CandidateMap RandomCands(Random* rng, const std::vector<VarId>& vars) {
    CandidateMap cands;
    const size_t ids = db_.dict().size() + 3;
    for (VarId v : vars) {
      if (!rng->Bernoulli(0.3)) continue;
      CandidateMap::Set set;
      const size_t n = rng->Range(0, 10);
      for (size_t i = 0; i < n; ++i)
        set.push_back(static_cast<TermId>(rng->Uniform(ids)));
      cands.Set_(v, std::move(set));
    }
    return cands;
  }

  /// Checks properties 1-3 for one BGP; `where` names the case.
  void Check(const Bgp& bgp, const CandidateMap* cands,
             const std::string& where) {
    SCOPED_TRACE(where);
    WcoEngine wco(db_.store(), db_.dict(), db_.stats());
    HashJoinEngine hj(db_.store(), db_.dict(), db_.stats());
    const std::vector<VarId> vars = bgp.Variables();
    BindingSet got = wco.Evaluate(bgp, cands, nullptr, nullptr);
    BindingSet want = hj.Evaluate(bgp, cands, nullptr, nullptr);
    ASSERT_EQ(got.SortedRows(vars), want.SortedRows(vars));

    for (size_t parallelism : {1, 2, 8}) {
      for (size_t morsel : {1, 64}) {
        ParallelSpec spec;
        spec.pool = &pool_;
        spec.parallelism = parallelism;
        spec.morsel_size = morsel;
        BindingSet par = wco.Evaluate(bgp, cands, nullptr, nullptr, spec);
        ASSERT_EQ(par.schema(), got.schema());
        ASSERT_EQ(par.size(), got.size());
        ASSERT_EQ(RowsInOrder(par), RowsInOrder(got))
            << "parallelism=" << parallelism << " morsel=" << morsel;
      }
    }

    const std::vector<VarId> order = wco.RowOrder(bgp, cands);
    std::vector<size_t> cols;
    for (VarId v : order) cols.push_back(got.ColumnOf(v));
    std::vector<TermId> prev, row;
    for (size_t r = 0; r < got.size(); ++r) {
      row.clear();
      for (size_t c : cols) row.push_back(got.At(r, c));
      if (r > 0) {
        ASSERT_LT(prev, row) << "row " << r << " out of order";
      }
      prev.swap(row);
    }
  }

  Database db_;
  VarTable vars_;
  ExecutorPool pool_{3};
  std::vector<std::string> triples_;
  std::string nt_;
};

TEST_F(WcoPropertyTest, RandomBgpsMatchHashJoinAndStaySorted) {
  const uint64_t base = BaseSeed();
  for (int it = 0; it < kIterations; ++it) {
    const uint64_t seed = base + static_cast<uint64_t>(it);
    Random rng(seed);
    const std::string body = RandomBgp(&rng);
    Bgp bgp = ParseBgp(body);
    const CandidateMap cands = RandomCands(&rng, bgp.Variables());
    Check(bgp, cands.empty() ? nullptr : &cands,
          "SPARQLUO_WCO_SEED=" + std::to_string(seed) + " (iteration " +
              std::to_string(it) + "): { " + body + "} with " +
              std::to_string(cands.size()) + " candidate set(s)");
    if (HasFatalFailure()) return;
  }
}

// `?x p ?y . ?x q ?x`, where `p` comes first in pattern order: ?x must be
// seeded from the self-loop, not from the projection of `p`, or ?x = c (a
// q-edge, but not to itself) and ?x = e (no q-edge) get through.
TEST_F(WcoPropertyTest, SelfLoopBehindProjectionSeedIsChecked) {
  Database db;
  ASSERT_TRUE(db.LoadNTriplesString(
                    "<http://g/a> <http://g/p> <http://g/b> .\n"
                    "<http://g/c> <http://g/p> <http://g/d> .\n"
                    "<http://g/e> <http://g/p> <http://g/f> .\n"
                    "<http://g/a> <http://g/q> <http://g/a> .\n"
                    "<http://g/c> <http://g/q> <http://g/e> .\n")
                  .ok());
  db.Finalize(EngineKind::kWco);
  VarTable vars;
  auto g = ParseGroupGraphPattern(
      "{ ?x <http://g/p> ?y . ?x <http://g/q> ?x . }", &vars);
  ASSERT_TRUE(g.ok());
  Bgp bgp;
  for (const auto& e : g->elements) bgp.triples.push_back(e.triple);
  WcoEngine wco(db.store(), db.dict(), db.stats());
  // ?x comes first (q has fewer triples than p) with no bound neighbour;
  // its step must read the self-loop, and `?x p ?y` is joined at ?y.
  ASSERT_EQ(wco.RowOrder(bgp, nullptr),
            (std::vector<VarId>{vars.Lookup("x"), vars.Lookup("y")}));
  BindingSet got = wco.Evaluate(bgp, nullptr, nullptr, nullptr);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(db.dict().ToString(got.Value(0, vars.Lookup("x"))),
            "<http://g/a>");
  EXPECT_EQ(db.dict().ToString(got.Value(0, vars.Lookup("y"))),
            "<http://g/b>");
  HashJoinEngine hj(db.store(), db.dict(), db.stats());
  EXPECT_EQ(got.SortedRows(bgp.Variables()),
            hj.Evaluate(bgp, nullptr, nullptr, nullptr)
                .SortedRows(bgp.Variables()));
}

}  // namespace
}  // namespace sparqluo
