#include <gtest/gtest.h>

#include <sstream>

#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/statistics.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"

namespace sparqluo {
namespace {

// ---------------------------------------------------------------- Term ---

TEST(TermTest, IriToString) {
  EXPECT_EQ(Term::Iri("http://ex.org/a").ToString(), "<http://ex.org/a>");
}

TEST(TermTest, PlainLiteralToString) {
  EXPECT_EQ(Term::Literal("hello").ToString(), "\"hello\"");
}

TEST(TermTest, LangLiteralToString) {
  EXPECT_EQ(Term::LangLiteral("Bill Clinton", "en").ToString(),
            "\"Bill Clinton\"@en");
}

TEST(TermTest, TypedLiteralToString) {
  EXPECT_EQ(Term::TypedLiteral("1946-08-19",
                               "http://www.w3.org/2001/XMLSchema#date")
                .ToString(),
            "\"1946-08-19\"^^<http://www.w3.org/2001/XMLSchema#date>");
}

TEST(TermTest, BlankToString) {
  EXPECT_EQ(Term::Blank("b0").ToString(), "_:b0");
}

TEST(TermTest, LiteralEscaping) {
  Term t = Term::Literal("line\n\"q\"");
  EXPECT_EQ(t.ToString(), "\"line\\n\\\"q\\\"\"");
}

// Every escaped byte at the start, between unescaped runs, back to back
// and at the end; AppendTo appends ToString's text after what is there.
TEST(TermTest, LiteralEscapingEveryByteAndAppendTo) {
  Term t = Term::LangLiteral("\\a\"bc\n\t\rd\"", "en");
  const std::string expected = "\"\\\\a\\\"bc\\n\\t\\rd\\\"\"@en";
  EXPECT_EQ(t.ToString(), expected);
  std::string out = "x ";
  t.AppendTo(&out);
  EXPECT_EQ(out, "x " + expected);
}

TEST(TermTest, ParseRoundTripAllKinds) {
  std::vector<Term> terms = {
      Term::Iri("http://ex.org/x"),
      Term::Literal("plain"),
      Term::LangLiteral("text", "en"),
      Term::TypedLiteral("5", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::Blank("node1"),
      Term::Literal("esc\\aped \"str\"\n"),
  };
  for (const Term& t : terms) {
    auto parsed = Term::Parse(t.ToString());
    ASSERT_TRUE(parsed.ok()) << t.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(*parsed, t) << t.ToString();
  }
}

TEST(TermTest, ParseErrors) {
  EXPECT_FALSE(Term::Parse("").ok());
  EXPECT_FALSE(Term::Parse("<unterminated").ok());
  EXPECT_FALSE(Term::Parse("\"unterminated").ok());
  EXPECT_FALSE(Term::Parse("noangle").ok());
}

TEST(TermTest, CanonicalKeyDisjointAcrossKinds) {
  // Same lexical form, different kinds must not collide in the dictionary.
  EXPECT_NE(Term::Iri("x").CanonicalKey(), Term::Literal("x").CanonicalKey());
  EXPECT_NE(Term::Blank("x").CanonicalKey(), Term::Literal("x").CanonicalKey());
  EXPECT_NE(Term::LangLiteral("x", "en").CanonicalKey(),
            Term::Literal("x").CanonicalKey());
  EXPECT_NE(Term::TypedLiteral("x", "dt").CanonicalKey(),
            Term::LangLiteral("x", "dt").CanonicalKey());
}

// ---------------------------------------------------------- Dictionary ---

TEST(DictionaryTest, EncodeAssignsDenseIds) {
  Dictionary d;
  TermId a = d.Encode(Term::Iri("a"));
  TermId b = d.Encode(Term::Iri("b"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, EncodeIsIdempotent) {
  Dictionary d;
  TermId a1 = d.Encode(Term::Iri("a"));
  TermId a2 = d.Encode(Term::Iri("a"));
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DictionaryTest, LookupNeverInserts) {
  Dictionary d;
  EXPECT_EQ(d.Lookup(Term::Iri("missing")), kInvalidTermId);
  EXPECT_EQ(d.size(), 0u);
}

TEST(DictionaryTest, DecodeInverse) {
  Dictionary d;
  Term t = Term::LangLiteral("hello", "en");
  TermId id = d.Encode(t);
  EXPECT_EQ(d.Decode(id), t);
}

TEST(DictionaryTest, CountsLiterals) {
  Dictionary d;
  d.Encode(Term::Iri("a"));
  d.Encode(Term::Literal("x"));
  d.Encode(Term::LangLiteral("y", "en"));
  EXPECT_EQ(d.literal_count(), 2u);
}

TEST(DictionaryTest, ToStringUnbound) {
  Dictionary d;
  EXPECT_EQ(d.ToString(kInvalidTermId), "UNBOUND");
}

// --------------------------------------------------------- TripleStore ---

class TripleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small graph: edges (i, p0, i+1) for i in 0..9 and (i, p1, 0).
    for (TermId i = 0; i < 10; ++i) {
      store_.Add(Triple(i, 100, i + 1));
      store_.Add(Triple(i, 101, 0));
    }
    store_.Add(Triple(5, 100, 7));  // extra fan-out from 5
    store_.Build();
  }

  size_t CountScan(const TriplePatternIds& q) {
    size_t n = 0;
    store_.Scan(q, [&](const Triple&) {
      ++n;
      return true;
    });
    return n;
  }

  TripleStore store_;
};

TEST_F(TripleStoreTest, SizeAfterBuild) { EXPECT_EQ(store_.size(), 21u); }

TEST_F(TripleStoreTest, DeduplicatesOnBuild) {
  TripleStore s;
  s.Add(Triple(1, 2, 3));
  s.Add(Triple(1, 2, 3));
  s.Build();
  EXPECT_EQ(s.size(), 1u);
}

TEST_F(TripleStoreTest, ScanFullyUnbound) {
  TriplePatternIds q;
  EXPECT_EQ(CountScan(q), 21u);
}

TEST_F(TripleStoreTest, ScanBySubject) {
  TriplePatternIds q;
  q.s = 5;
  EXPECT_EQ(CountScan(q), 3u);  // (5,100,6), (5,100,7), (5,101,0)
}

TEST_F(TripleStoreTest, ScanBySubjectPredicate) {
  TriplePatternIds q;
  q.s = 5;
  q.p = 100;
  EXPECT_EQ(CountScan(q), 2u);
}

TEST_F(TripleStoreTest, ScanByPredicate) {
  TriplePatternIds q;
  q.p = 101;
  EXPECT_EQ(CountScan(q), 10u);
}

TEST_F(TripleStoreTest, ScanByPredicateObject) {
  TriplePatternIds q;
  q.p = 101;
  q.o = 0;
  EXPECT_EQ(CountScan(q), 10u);
}

TEST_F(TripleStoreTest, ScanByObject) {
  TriplePatternIds q;
  q.o = 0;
  EXPECT_EQ(CountScan(q), 10u);
}

TEST_F(TripleStoreTest, ScanBySubjectObject) {
  TriplePatternIds q;
  q.s = 5;
  q.o = 7;
  EXPECT_EQ(CountScan(q), 1u);
}

TEST_F(TripleStoreTest, ScanFullyBound) {
  TriplePatternIds q;
  q.s = 5;
  q.p = 100;
  q.o = 7;
  EXPECT_EQ(CountScan(q), 1u);
  q.o = 9;
  EXPECT_EQ(CountScan(q), 0u);
}

TEST_F(TripleStoreTest, ScanEarlyStop) {
  TriplePatternIds q;
  size_t n = 0;
  store_.Scan(q, [&](const Triple&) {
    ++n;
    return n < 5;
  });
  EXPECT_EQ(n, 5u);
}

TEST_F(TripleStoreTest, CountMatchesScanOnAllShapes) {
  std::vector<TriplePatternIds> shapes;
  TriplePatternIds q;
  shapes.push_back(q);
  q.s = 5; shapes.push_back(q);
  q.p = 100; shapes.push_back(q);
  q.o = 6; shapes.push_back(q);
  q.p = kInvalidTermId; shapes.push_back(q);       // s, o
  q.s = kInvalidTermId; shapes.push_back(q);       // o
  q.p = 100; shapes.push_back(q);                  // p, o
  q.o = kInvalidTermId; shapes.push_back(q);       // p
  for (const auto& shape : shapes)
    EXPECT_EQ(store_.Count(shape), CountScan(shape));
}

TEST_F(TripleStoreTest, Contains) {
  EXPECT_TRUE(store_.Contains(Triple(0, 100, 1)));
  EXPECT_FALSE(store_.Contains(Triple(0, 100, 2)));
}

TEST_F(TripleStoreTest, TriplesSortedSpo) {
  // triples() materializes elements on access (the CSR layout holds no
  // flat array), so copy each one out before comparing.
  auto ts = store_.triples();
  for (size_t i = 1; i < ts.size(); ++i) {
    Triple prev = ts[i - 1], cur = ts[i];
    bool ordered = std::tie(prev.s, prev.p, prev.o) <
                   std::tie(cur.s, cur.p, cur.o);
    EXPECT_TRUE(ordered);
  }
}

TEST_F(TripleStoreTest, TripleViewIterationMatchesIndexing) {
  auto ts = store_.triples();
  size_t i = 0;
  for (const Triple& t : ts) {
    EXPECT_EQ(t, ts[i]);
    ++i;
  }
  EXPECT_EQ(i, ts.size());
}

TEST_F(TripleStoreTest, DistinctFirstsPerPermutation) {
  // Subjects 0..10 (10 gains in-degree only; subjects are 0..9 plus the
  // dedicated extra edge source 5 — distinct subjects are 0..9).
  EXPECT_EQ(store_.DistinctFirsts(Perm::kSpo).size(), 10u);
  EXPECT_EQ(store_.DistinctFirsts(Perm::kPos).size(), 2u);   // p100, p101
  EXPECT_EQ(store_.DistinctFirsts(Perm::kOsp).size(), 11u);  // objects 0..10
}

TEST_F(TripleStoreTest, ForEachGroupCoversEveryTriple) {
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    size_t total = 0;
    TermId last_first = 0;
    bool first_group = true;
    store_.ForEachGroup(perm, [&](TermId first, std::span<const IdPair> pairs) {
      EXPECT_FALSE(pairs.empty());
      if (!first_group) EXPECT_GT(first, last_first);
      first_group = false;
      last_first = first;
      EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
      total += pairs.size();
    });
    EXPECT_EQ(total, store_.size());
  }
}

TEST_F(TripleStoreTest, IndexBytesBelowFlatBaseline) {
  EXPECT_LT(store_.IndexBytes(), 3 * sizeof(Triple) * store_.size());
}

TEST_F(TripleStoreTest, ProbeHintedLookupsMatchCold) {
  // A sorted probe sequence through one hint must agree with cold probes.
  TripleStore::ProbeHint hint;
  for (TermId s = 0; s <= 11; ++s) {
    TriplePatternIds q;
    q.s = s;
    EXPECT_EQ(store_.Count(q, &hint), store_.Count(q)) << s;
  }
  // Descending and repeated probes exercise the leftward gallop.
  for (TermId s : {11u, 5u, 5u, 0u, 9u, 2u}) {
    TriplePatternIds q;
    q.s = s;
    EXPECT_EQ(store_.Count(q, &hint), store_.Count(q)) << s;
    EXPECT_EQ(store_.Contains(Triple(s, 100, s + 1), &hint),
              store_.Contains(Triple(s, 100, s + 1)))
        << s;
  }
}

// ---------------------------------------------------------- Statistics ---

TEST(StatisticsTest, TableTwoColumns) {
  Dictionary dict;
  TripleStore store;
  auto iri = [&](const std::string& s) { return dict.Encode(Term::Iri(s)); };
  auto lit = [&](const std::string& s) { return dict.Encode(Term::Literal(s)); };
  TermId name = iri("p/name"), knows = iri("p/knows");
  store.Add(Triple(iri("a"), name, lit("A")));
  store.Add(Triple(iri("b"), name, lit("B")));
  store.Add(Triple(iri("a"), knows, iri("b")));
  store.Add(Triple(iri("b"), knows, iri("c")));
  store.Build();
  Statistics st = Statistics::Compute(store, dict);
  EXPECT_EQ(st.num_triples(), 4u);
  EXPECT_EQ(st.num_predicates(), 2u);
  EXPECT_EQ(st.num_literals(), 2u);
  // Entities: a, b, c (predicates are not subjects/objects here).
  EXPECT_EQ(st.num_entities(), 3u);
}

TEST(StatisticsTest, PredicateFanout) {
  Dictionary dict;
  TripleStore store;
  auto iri = [&](const std::string& s) { return dict.Encode(Term::Iri(s)); };
  TermId p = iri("p");
  // One subject with 4 objects: avg_out = 4, avg_in = 1.
  for (TermId o = 0; o < 4; ++o)
    store.Add(Triple(iri("hub"), p, iri("o" + std::to_string(o))));
  store.Build();
  Statistics st = Statistics::Compute(store, dict);
  const PredicateStats& ps = st.ForPredicate(p);
  EXPECT_EQ(ps.count, 4u);
  EXPECT_DOUBLE_EQ(ps.avg_out(), 4.0);
  EXPECT_DOUBLE_EQ(ps.avg_in(), 1.0);
}

TEST(StatisticsTest, UnknownPredicateIsZero) {
  Dictionary dict;
  TripleStore store;
  store.Build();
  Statistics st = Statistics::Compute(store, dict);
  EXPECT_EQ(st.ForPredicate(12345).count, 0u);
  EXPECT_DOUBLE_EQ(st.ForPredicate(12345).avg_out(), 0.0);
}

// ------------------------------------------------------------ NTriples ---

TEST(NTriplesTest, ParseBasic) {
  Dictionary dict;
  TripleStore store;
  std::string text =
      "<http://a> <http://p> <http://b> .\n"
      "# a comment\n"
      "\n"
      "<http://a> <http://name> \"Alice\"@en .\n"
      "<http://a> <http://age> \"30\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n"
      "_:b1 <http://p> <http://a> .\n";
  ASSERT_TRUE(ParseNTriplesString(text, &dict, &store).ok());
  store.Build();
  EXPECT_EQ(store.size(), 4u);
}

TEST(NTriplesTest, ParseRejectsMalformed) {
  Dictionary dict;
  TripleStore store;
  EXPECT_FALSE(ParseNTriplesString("<a> <b>\n", &dict, &store).ok());
  EXPECT_FALSE(
      ParseNTriplesString("<a> <b> <c>\n", &dict, &store).ok());  // missing dot
}

TEST(NTriplesTest, LiteralWithEscapedQuote) {
  Dictionary dict;
  TripleStore store;
  std::string text = "<http://a> <http://p> \"say \\\"hi\\\" now\" .\n";
  ASSERT_TRUE(ParseNTriplesString(text, &dict, &store).ok());
  store.Build();
  ASSERT_EQ(store.size(), 1u);
  Term o = dict.Decode(store.triples()[0].o);
  EXPECT_EQ(o.lexical, "say \"hi\" now");
}

TEST(NTriplesTest, WriteReadRoundTrip) {
  Dictionary dict;
  TripleStore store;
  std::string text =
      "<http://a> <http://p> <http://b> .\n"
      "<http://a> <http://name> \"Alice \\\"A\\\"\"@en .\n";
  ASSERT_TRUE(ParseNTriplesString(text, &dict, &store).ok());
  store.Build();
  std::ostringstream out;
  WriteNTriples(store, dict, out);

  Dictionary dict2;
  TripleStore store2;
  ASSERT_TRUE(ParseNTriplesString(out.str(), &dict2, &store2).ok());
  store2.Build();
  EXPECT_EQ(store2.size(), store.size());
}

TEST(NTriplesTest, MissingFile) {
  Dictionary dict;
  TripleStore store;
  Status s = LoadNTriplesFile("/nonexistent/file.nt", &dict, &store);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sparqluo
