// SPQLUO2 snapshot round-trip suite.
//
// The central claims under test:
//   1. a v2-loaded database answers queries *bit-identically* — same
//      schema, same rows, same row order, same TermIds — to the database
//      that was never snapshotted, for both engines at parallelism 1 and
//      8, in both the mmap and buffered load modes;
//   2. a commit applied on top of a mapped (borrowed-memory) load yields
//      exactly the owned CSR layout a from-scratch build produces;
//   3. the committed golden v1 fixture keeps loading, and re-saving it
//      reproduces the v2 file of the database it was written from byte
//      for byte (the legacy reader cannot drift from the v2 writer).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/snapshot.h"
#include "util/executor_pool.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Exact (bitwise) equality: same schema, same rows in the same order.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

/// Per-permutation CSR layout equality (directories and bucket contents).
void ExpectSameCsrLayout(const TripleStore& a, const TripleStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    auto af = a.DistinctFirsts(perm);
    auto bf = b.DistinctFirsts(perm);
    ASSERT_TRUE(std::equal(af.begin(), af.end(), bf.begin(), bf.end()))
        << "directory divergence, perm " << static_cast<int>(perm);
    std::vector<std::pair<TermId, std::vector<IdPair>>> ga, gb;
    a.ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
      ga.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
    });
    b.ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
      gb.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
    });
    ASSERT_EQ(ga, gb) << "bucket divergence, perm " << static_cast<int>(perm);
  }
}

/// The workload both engines answer over the snapshot: the paper's LUBM
/// queries, which cover UNION, OPTIONAL and multi-pattern joins.
std::vector<std::string> Workload() {
  std::vector<std::string> out;
  for (const PaperQuery& q : LubmPaperQueries()) out.push_back(q.sparql);
  return out;
}

BindingSet RunRaw(const Database& db, const std::string& query,
                  size_t parallelism) {
  ExecOptions opts = ExecOptions::Full();
  std::unique_ptr<ExecutorPool> pool;
  if (parallelism != 1) {
    pool = std::make_unique<ExecutorPool>(parallelism - 1);
    opts.parallel.pool = pool.get();
    opts.parallel.parallelism = parallelism;
  }
  auto r = db.Query(query, opts);
  EXPECT_TRUE(r.ok()) << query << " -> " << r.status().ToString();
  if (!r.ok()) return BindingSet();
  return std::move(*r);
}

class SnapshotV2Test : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    std::string dir = ::testing::TempDir();
    v2_path_ = dir + "snapshot_v2_test.v2";
    LubmConfig cfg;
    cfg.universities = 1;
    cfg.density = 0.2;
    GenerateLubm(cfg, &original_);
    original_.Finalize(GetParam());
    ASSERT_TRUE(SaveSnapshot(original_, v2_path_).ok());
  }
  void TearDown() override {
    std::remove(v2_path_.c_str());
  }

  /// Loads the v2 file into a fresh finalized database.
  std::unique_ptr<Database> LoadV2(bool allow_mmap,
                                   SnapshotLoadInfo* info = nullptr) {
    auto db = std::make_unique<Database>();
    SnapshotLoadOptions opts;
    opts.allow_mmap = allow_mmap;
    Status st = LoadSnapshot(v2_path_, db.get(), opts, info);
    EXPECT_TRUE(st.ok()) << st.ToString();
    db->Finalize(GetParam());
    return db;
  }

  Database original_;
  std::string v2_path_;
};

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotV2Test,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// Claim 1: raw TermId-level query identity against the never-snapshotted
// database, both load modes, parallelism 1 and 8. The dictionary is
// serialized in id order, so the loaded database assigns identical ids
// and rows must match bit for bit, not just as decoded bags.
TEST_P(SnapshotV2Test, MappedAndBufferedLoadsAnswerBitIdentically) {
  for (bool mmap_mode : {true, false}) {
    SnapshotLoadInfo info;
    auto restored = LoadV2(mmap_mode, &info);
    EXPECT_EQ(info.format, SnapshotFormat::kV2);
    if (!mmap_mode) {
      EXPECT_FALSE(info.mapped);
    }

    ASSERT_EQ(restored->size(), original_.size());
    ASSERT_EQ(restored->dict().size(), original_.dict().size());
    ExpectSameCsrLayout(restored->store(), original_.store());
    for (const std::string& q : Workload()) {
      for (size_t parallelism : {size_t{1}, size_t{8}}) {
        BindingSet mine = RunRaw(*restored, q, parallelism);
        BindingSet ref = RunRaw(original_, q, parallelism);
        EXPECT_TRUE(BitIdentical(mine, ref))
            << (mmap_mode ? "mmap" : "buffered") << " parallelism "
            << parallelism << "\n" << q;
      }
    }
  }
}

// The statistics section round-trips exactly: the loaded version's stats
// (adopted, never recomputed) equal a fresh Compute over the same store.
TEST_P(SnapshotV2Test, StatisticsRoundTripExactly) {
  auto restored = LoadV2(true);
  const Statistics& loaded = restored->stats();
  Statistics computed =
      Statistics::Compute(restored->store(), restored->dict());
  EXPECT_EQ(loaded.num_triples(), computed.num_triples());
  EXPECT_EQ(loaded.num_entities(), computed.num_entities());
  EXPECT_EQ(loaded.num_predicates(), computed.num_predicates());
  EXPECT_EQ(loaded.num_literals(), computed.num_literals());
  for (TermId p : restored->store().DistinctFirsts(Perm::kPos)) {
    const PredicateStats& a = loaded.ForPredicate(p);
    const PredicateStats& b = computed.ForPredicate(p);
    EXPECT_EQ(a.count, b.count) << p;
    EXPECT_EQ(a.distinct_subjects, b.distinct_subjects) << p;
    EXPECT_EQ(a.distinct_objects, b.distinct_objects) << p;
  }
}

// Claim 2: commits on top of a mapped load. BuildDelta reads the borrowed
// arrays and must write an owned layout identical to the one produced by
// committing onto the never-snapshotted database.
TEST_P(SnapshotV2Test, UpdateAfterMappedLoadCommitsIdentically) {
  auto restored = LoadV2(true);
  const char* update =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "INSERT DATA { "
      "<http://ex.org/newProf> ub:worksFor <http://www.Department0.University0.edu> . "
      "<http://ex.org/newProf> ub:name \"New Prof\" . "
      "<http://www.Department0.University0.edu> ub:subOrganizationOf "
      "<http://www.University0.edu> }";
  auto c1 = restored->Update(update);
  auto c2 = original_.Update(update);
  ASSERT_TRUE(c1.ok()) << c1.status().ToString();
  ASSERT_TRUE(c2.ok()) << c2.status().ToString();
  EXPECT_EQ(c1->inserted, c2->inserted);
  EXPECT_EQ(c1->store_size, c2->store_size);
  ExpectSameCsrLayout(restored->store(), original_.store());
  for (const std::string& q : Workload()) {
    BindingSet mine = RunRaw(*restored, q, 1);
    BindingSet ref = RunRaw(original_, q, 1);
    EXPECT_TRUE(BitIdentical(mine, ref)) << q;
  }

  // A delete-heavy follow-up exercises the removal path of the merge too.
  const char* removal =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "DELETE DATA { <http://ex.org/newProf> ub:name \"New Prof\" }";
  ASSERT_TRUE(restored->Update(removal).ok());
  ASSERT_TRUE(original_.Update(removal).ok());
  ExpectSameCsrLayout(restored->store(), original_.store());
}

// Re-saving a checkpoint over the very file the store is mmap'd from
// must not truncate the borrowed pages mid-serialization (the writer
// publishes via temp-file + rename): the live database keeps answering
// from the old inode, and the republished file loads cleanly.
TEST_P(SnapshotV2Test, ResaveOverMappedFileIsSafe) {
  auto restored = LoadV2(true);
  const std::string q = Workload()[0];
  const size_t rows_before = RunRaw(*restored, q, 1).size();
  ASSERT_TRUE(SaveSnapshot(*restored, v2_path_).ok());
  EXPECT_EQ(RunRaw(*restored, q, 1).size(), rows_before);
  Database again;
  ASSERT_TRUE(LoadSnapshot(v2_path_, &again).ok());
  again.Finalize(GetParam());
  EXPECT_EQ(again.size(), restored->size());
}

// The dictionary's lazily rebuilt string index: after a bulk v2 load,
// Encode of an existing term must find it (no duplicate ids) and Lookup
// of an absent term must miss cleanly.
TEST_P(SnapshotV2Test, LazyDictionaryIndexFindsExistingTerms) {
  auto restored = LoadV2(true);
  ASSERT_GT(restored->dict().size(), 0u);
  const Term& t0 = restored->dict().Decode(0);
  EXPECT_EQ(restored->dict().Encode(t0), 0u);
  const Term& last = restored->dict().Decode(
      static_cast<TermId>(restored->dict().size() - 1));
  EXPECT_EQ(restored->dict().Lookup(last),
            static_cast<TermId>(restored->dict().size() - 1));
  EXPECT_EQ(restored->dict().Lookup(Term::Iri("http://no.such/term")),
            kInvalidTermId);
}

// ---------------------------------------------------------------------
// Golden fixture + error reporting (format drift canaries)
// ---------------------------------------------------------------------

class SnapshotGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "snapshot_golden_test.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// The fixture database behind tests/data/golden_v1.snapshot: one term
  /// of every kind and qualifier shape. Terms are interned explicitly
  /// up front so ids don't depend on AddTriple's argument evaluation
  /// order (which is compiler-specific).
  static Database BuildGoldenDatabase() {
    Database db;
    db.dict().Encode(Term::Iri("http://example.org/s"));
    db.dict().Encode(Term::Iri("http://example.org/p"));
    db.dict().Encode(Term::Iri("http://example.org/o"));
    db.dict().Encode(Term::Iri("http://example.org/name"));
    db.dict().Encode(Term::LangLiteral("golden", "en"));
    db.dict().Encode(Term::Iri("http://example.org/age"));
    db.dict().Encode(Term::TypedLiteral(
        "41", "http://www.w3.org/2001/XMLSchema#integer"));
    db.dict().Encode(Term::Blank("b0"));
    db.dict().Encode(Term::Literal("plain"));
    db.AddTriple(Term::Iri("http://example.org/s"),
                 Term::Iri("http://example.org/p"),
                 Term::Iri("http://example.org/o"));
    db.AddTriple(Term::Iri("http://example.org/s"),
                 Term::Iri("http://example.org/name"),
                 Term::LangLiteral("golden", "en"));
    db.AddTriple(Term::Iri("http://example.org/s"),
                 Term::Iri("http://example.org/age"),
                 Term::TypedLiteral("41", "http://www.w3.org/2001/XMLSchema#integer"));
    db.AddTriple(Term::Blank("b0"), Term::Iri("http://example.org/p"),
                 Term::Literal("plain"));
    db.Finalize();
    return db;
  }

  static std::string GoldenV1Path() {
    return std::string(SPARQLUO_TEST_DATA_DIR) + "/golden_v1.snapshot";
  }

  std::string path_;
};

// The committed golden v1 fixture still loads and answers a smoke query;
// any incompatible change to the v1 reader breaks this first.
TEST_F(SnapshotGoldenTest, CommittedV1FixtureLoads) {
  Database db;
  SnapshotLoadInfo info;
  ASSERT_TRUE(LoadSnapshot(GoldenV1Path(), &db, {}, &info).ok());
  EXPECT_EQ(info.format, SnapshotFormat::kV1);
  db.Finalize();
  EXPECT_EQ(db.size(), 4u);
  auto r = db.Query(
      "SELECT ?o WHERE { <http://example.org/s> <http://example.org/name> ?o }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 1u);
}

// Claim 3: v1 -> v2. Loading the fixture (full rebuild) and saving v2
// must reproduce the v2 file of the database the fixture was written
// from, byte for byte: the legacy reader and the persisted indexes
// cannot drift apart silently.
TEST_F(SnapshotGoldenTest, V1LoadResavedAsV2IsByteIdentical) {
  Database via_v1;
  ASSERT_TRUE(LoadSnapshot(GoldenV1Path(), &via_v1).ok());
  via_v1.Finalize();
  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(SaveSnapshot(via_v1, resaved).ok());
  ASSERT_TRUE(SaveSnapshot(BuildGoldenDatabase(), path_).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path_));
  std::remove(resaved.c_str());
}

// Error-reporting regression (both formats): a short file must name the
// failing section and byte offset, not just say "read error".
TEST_F(SnapshotGoldenTest, V1TruncationErrorsNameSectionAndOffset) {
  std::string bytes = ReadFileBytes(GoldenV1Path());
  // Cut inside the term section (just past the first record's kind byte).
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), 17);
  out.close();
  Database fresh;
  Status st = LoadSnapshot(path_, &fresh);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("terms"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("offset"), std::string::npos) << st.ToString();

  // An empty v1 header: the 'terms' count itself is missing at offset 8.
  std::ofstream out2(path_, std::ios::binary | std::ios::trunc);
  out2.write(bytes.data(), 8);
  out2.close();
  Database fresh2;
  st = LoadSnapshot(path_, &fresh2);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("offset 8"), std::string::npos) << st.ToString();
}

TEST_F(SnapshotGoldenTest, V2TruncationErrorsNameSectionAndOffset) {
  Database db = BuildGoldenDatabase();
  ASSERT_TRUE(SaveSnapshot(db, path_).ok());
  std::string bytes = ReadFileBytes(path_);
  // Keep the header and TOC but amputate the payloads: every section
  // lands out of bounds, and the error must say which one and where.
  ASSERT_GT(bytes.size(), 400u);  // 16-byte header + 12 x 32-byte TOC
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), 400);
  out.close();
  Database fresh;
  Status st = LoadSnapshot(path_, &fresh);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("section"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("offset"), std::string::npos) << st.ToString();
}

}  // namespace
}  // namespace sparqluo
