// Versioned update subsystem tests (src/store).
//
// The central claim under test: query results on a committed version are
// bit-identical to a store rebuilt from scratch with the same net triples
// — for both BGP engines, at parallelism 1 and 8, and with readers running
// concurrently with a writer (no torn reads, plan cache invalidated
// across versions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/query_service.h"
#include "store/update.h"
#include "util/executor_pool.h"

namespace sparqluo {
namespace {

const char* kPrologue = "PREFIX ex: <http://ex.org/> ";

std::string Ex(const std::string& local) { return "http://ex.org/" + local; }

/// The query workload the versioned store is checked against: BGP joins,
/// UNION, OPTIONAL, DISTINCT and ORDER BY all exercise different parts of
/// the merged permutation indexes.
std::vector<std::string> Workload() {
  return {
      std::string(kPrologue) + "SELECT ?x ?y WHERE { ?x ex:knows ?y }",
      std::string(kPrologue) +
          "SELECT ?x ?c WHERE { { ?x ex:email ?c } UNION { ?x ex:phone ?c } }",
      std::string(kPrologue) +
          "SELECT ?x ?n ?e WHERE { ?x a ex:Person . ?x ex:name ?n "
          "OPTIONAL { ?x ex:email ?e } }",
      std::string(kPrologue) +
          "SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }",
      std::string(kPrologue) +
          "SELECT DISTINCT ?y WHERE { ?x ex:knows ?y } ORDER BY ?y",
  };
}

/// Exact (bitwise) equality: same schema, same rows in the same order.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

/// Rebuilds a fresh database from scratch holding exactly the version's
/// net triples, interning terms in the same first-seen order so the two
/// databases assign identical TermIds. Term-id order decides permutation
/// index order (and therefore row order), so "bit-identical to a rebuild"
/// only makes sense with the interning order reproduced — which is also
/// what any real reload does (snapshot save/load re-encodes ids densely
/// in order).
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

/// Decoded row images (schema + ordered rows) — comparable across two
/// databases with different dictionaries.
std::vector<std::string> DecodedRows(const BindingSet& rows,
                                     const Dictionary& dict) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    std::string line;
    for (size_t c = 0; c < rows.width(); ++c) {
      line += dict.ToString(rows.At(r, c));
      line += '\t';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Mirror of the net triple set, replayed alongside the real batches so a
/// reference database can be rebuilt from scratch at any point.
class NetTriples {
 public:
  void Insert(const Term& s, const Term& p, const Term& o) {
    net_[Key(s, p, o)] = {s, p, o};
  }
  void Delete(const Term& s, const Term& p, const Term& o) {
    net_.erase(Key(s, p, o));
  }
  void Replay(const UpdateBatch& batch) {
    for (const UpdateOp& op : batch.ops) {
      if (op.kind == UpdateOp::Kind::kInsert)
        Insert(op.triple.s, op.triple.p, op.triple.o);
      else
        Delete(op.triple.s, op.triple.p, op.triple.o);
    }
  }
  size_t size() const { return net_.size(); }

  std::unique_ptr<Database> Rebuild(EngineKind kind) const {
    auto db = std::make_unique<Database>();
    for (const auto& [key, t] : net_) db->AddTriple(t.s, t.p, t.o);
    db->Finalize(kind);
    return db;
  }

 private:
  static std::string Key(const Term& s, const Term& p, const Term& o) {
    return s.CanonicalKey() + "\x1f" + p.CanonicalKey() + "\x1f" +
           o.CanonicalKey();
  }
  std::map<std::string, GroundTriple> net_;
};

/// Base graph: 20 people in a knows-ring with names, emails on the evens.
void LoadBase(Database* db, NetTriples* net) {
  Term type = Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  Term person = Term::Iri(Ex("Person"));
  Term knows = Term::Iri(Ex("knows"));
  Term name = Term::Iri(Ex("name"));
  Term email = Term::Iri(Ex("email"));
  for (int i = 0; i < 20; ++i) {
    Term p = Term::Iri(Ex("p" + std::to_string(i)));
    db->AddTriple(p, type, person);
    net->Insert(p, type, person);
    db->AddTriple(p, name, Term::Literal("person " + std::to_string(i)));
    net->Insert(p, name, Term::Literal("person " + std::to_string(i)));
    Term next = Term::Iri(Ex("p" + std::to_string((i + 1) % 20)));
    Term hop = Term::Iri(Ex("p" + std::to_string((i + 7) % 20)));
    db->AddTriple(p, knows, next);
    net->Insert(p, knows, next);
    db->AddTriple(p, knows, hop);
    net->Insert(p, knows, hop);
    if (i % 2 == 0) {
      Term addr = Term::Literal("p" + std::to_string(i) + "@ex.org");
      db->AddTriple(p, email, addr);
      net->Insert(p, email, addr);
    }
  }
}

/// The update sequence: inserts of new entities, deletes of existing
/// triples, duplicate inserts, deletes of absent triples, and
/// insert-then-delete / delete-then-insert pairs within one batch.
std::vector<UpdateBatch> UpdateSequence() {
  Term type = Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  Term person = Term::Iri(Ex("Person"));
  Term knows = Term::Iri(Ex("knows"));
  Term name = Term::Iri(Ex("name"));
  Term email = Term::Iri(Ex("email"));
  Term phone = Term::Iri(Ex("phone"));
  auto p = [](int i) { return Term::Iri(Ex("p" + std::to_string(i))); };

  std::vector<UpdateBatch> batches;
  {
    // New person joins the graph; one existing edge is retired.
    UpdateBatch b;
    b.Insert(p(20), type, person);
    b.Insert(p(20), name, Term::Literal("person 20"));
    b.Insert(p(20), knows, p(0));
    b.Insert(p(3), knows, p(20));
    b.Delete(p(0), knows, p(1));
    batches.push_back(std::move(b));
  }
  {
    // Contact churn: email -> phone for p4; duplicate insert of an
    // existing triple and a delete of an absent one (both net no-ops).
    UpdateBatch b;
    b.Delete(p(4), email, Term::Literal("p4@ex.org"));
    b.Insert(p(4), phone, Term::Literal("+1-555-0104"));
    b.Insert(p(2), knows, p(3));        // already present in base
    b.Delete(p(9), email, Term::Literal("nobody@ex.org"));  // absent
    batches.push_back(std::move(b));
  }
  {
    // Within-batch replay: insert-then-delete is a net no-op,
    // delete-then-insert is a net (re-)insert.
    UpdateBatch b;
    b.Insert(p(21), type, person);
    b.Delete(p(21), type, person);
    b.Delete(p(0), knows, p(7));
    b.Insert(p(0), knows, p(7));
    b.Insert(p(0), knows, p(1));  // resurrect the edge deleted in batch 1
    batches.push_back(std::move(b));
  }
  {
    // Bulk-ish growth to push the delta-merge across several index pages.
    UpdateBatch b;
    for (int i = 30; i < 80; ++i) {
      b.Insert(p(i), type, person);
      b.Insert(p(i), knows, p(i % 20));
      if (i % 3 == 0) {
        b.Insert(p(i), email,
                 Term::Literal("p" + std::to_string(i) + "@ex.org"));
      }
    }
    b.Delete(p(6), knows, p(7));
    b.Delete(p(6), knows, p(13));
    batches.push_back(std::move(b));
  }
  return batches;
}

class UpdateTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LoadBase(&db_, &net_);
    db_.Finalize(GetParam());
  }

  /// Runs `query` on `db` at the given parallelism and returns the raw
  /// BindingSet (parallelism != 1 uses a dedicated pool).
  BindingSet RunRaw(Database& db, const std::string& query,
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

  /// Decoded variant of RunRaw.
  std::vector<std::string> Run(Database& db, const std::string& query,
                               size_t parallelism) {
    return DecodedRows(RunRaw(db, query, parallelism), db.dict());
  }

  Database db_;
  NetTriples net_;
};

INSTANTIATE_TEST_SUITE_P(Engines, UpdateTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// The acceptance criterion: after every commit in the sequence, every
// workload query on the committed version is bit-identical — same schema,
// same rows, same row order, same TermIds — to a database rebuilt from
// scratch with the same net triples (and the same interning order, see
// RebuildCanonical), at parallelism 1 and 8. A second, interning-order-
// independent rebuild checks bag-level semantic equality.
TEST_P(UpdateTest, CommittedVersionsBitIdenticalToRebuild) {
  std::vector<UpdateBatch> batches = UpdateSequence();
  uint64_t expect_version = 0;
  for (const UpdateBatch& batch : batches) {
    auto commit = db_.Apply(batch);
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    EXPECT_EQ(commit->version, ++expect_version);
    net_.Replay(batch);

    std::shared_ptr<const DatabaseVersion> snap = db_.Snapshot();
    ASSERT_EQ(snap->store->size(), net_.size());
    auto canonical = RebuildCanonical(*snap, GetParam());
    // The merged permutation arrays must match a from-scratch Build().
    ASSERT_EQ(canonical->store().triples().size(), snap->store->size());
    for (size_t i = 0; i < snap->store->size(); ++i)
      ASSERT_EQ(canonical->store().triples()[i], snap->store->triples()[i])
          << "SPO divergence at " << i << " after version " << expect_version;

    auto independent = net_.Rebuild(GetParam());
    for (const std::string& q : Workload()) {
      for (size_t parallelism : {size_t{1}, size_t{8}}) {
        BindingSet mine = RunRaw(db_, q, parallelism);
        BindingSet ref = RunRaw(*canonical, q, parallelism);
        EXPECT_TRUE(BitIdentical(mine, ref))
            << "version " << expect_version << " parallelism " << parallelism
            << "\n" << q;
        // Same bag of solutions regardless of interning order.
        std::vector<std::string> got = DecodedRows(mine, db_.dict());
        std::vector<std::string> want =
            Run(*independent, q, parallelism);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want)
            << "bag mismatch at version " << expect_version << "\n" << q;
      }
    }
  }
}

// The commit path's CSR-aware merge (TripleStore::BuildDelta) must
// reproduce the *layout* of a from-scratch Build bit for bit — every
// permutation's level-1 directory and level-2 bucket contents — not just
// the same triple bag. Query identity (above) would not catch, say, a
// merge that splits a bucket or reorders pairs within one in a way the
// current probe paths happen to tolerate.
TEST_P(UpdateTest, CommittedCsrLayoutIdenticalToRebuild) {
  uint64_t version = 0;
  for (const UpdateBatch& batch : UpdateSequence()) {
    auto commit = db_.Apply(batch);
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    ++version;
    net_.Replay(batch);

    std::shared_ptr<const DatabaseVersion> snap = db_.Snapshot();
    auto canonical = RebuildCanonical(*snap, GetParam());
    const TripleStore& committed = *snap->store;
    const TripleStore& rebuilt = canonical->store();
    ASSERT_EQ(committed.size(), rebuilt.size());
    ASSERT_EQ(committed.IndexBytes(), rebuilt.IndexBytes());
    for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
      auto cf = committed.DistinctFirsts(perm);
      auto rf = rebuilt.DistinctFirsts(perm);
      ASSERT_TRUE(std::equal(cf.begin(), cf.end(), rf.begin(), rf.end()))
          << "directory divergence, perm " << static_cast<int>(perm)
          << " version " << version;
      std::vector<std::pair<TermId, std::vector<IdPair>>> cg, rg;
      committed.ForEachGroup(perm,
                             [&](TermId f, std::span<const IdPair> prs) {
                               cg.emplace_back(
                                   f, std::vector<IdPair>(prs.begin(),
                                                          prs.end()));
                             });
      rebuilt.ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
        rg.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
      });
      ASSERT_EQ(cg, rg) << "bucket divergence, perm "
                        << static_cast<int>(perm) << " version " << version;
    }
  }
}

// Pool-parallel index construction — Build fanning the three CSR
// permutations over an ExecutorPool at Finalize, and BuildDelta merging
// them in parallel at every commit — must produce exactly the layout the
// sequential path does. (This is also the test that puts those code
// paths under the CI sanitizer matrix.)
TEST_P(UpdateTest, PoolParallelBuildAndCommitMatchSequential) {
  ExecutorPool pool(3);
  Database pooled;
  NetTriples ignored;
  LoadBase(&pooled, &ignored);
  pooled.Finalize(GetParam(), &pool);

  auto same_layout = [&](const TripleStore& a, const TripleStore& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.IndexBytes(), b.IndexBytes());
    for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
      std::vector<std::pair<TermId, std::vector<IdPair>>> ga, gb;
      a.ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
        ga.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
      });
      b.ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
        gb.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
      });
      ASSERT_EQ(ga, gb) << "perm " << static_cast<int>(perm);
    }
  };
  same_layout(pooled.store(), db_.store());

  for (const UpdateBatch& batch : UpdateSequence()) {
    ASSERT_TRUE(pooled.Apply(batch).ok());  // pool-parallel CSR merge
    ASSERT_TRUE(db_.Apply(batch).ok());     // sequential merge
    same_layout(pooled.store(), db_.store());
  }
}

// A reader that pinned a snapshot before a commit keeps seeing the old
// version's data; the database moves on underneath it.
TEST_P(UpdateTest, PinnedSnapshotIsIsolatedFromCommits) {
  const std::string q = Workload()[0];
  auto parsed = db_.Parse(q);
  ASSERT_TRUE(parsed.ok());

  std::shared_ptr<const DatabaseVersion> pinned = db_.Snapshot();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->id, 0u);
  auto before_r = pinned->executor->Execute(*parsed, ExecOptions::Full());
  ASSERT_TRUE(before_r.ok());
  BindingSet before = std::move(*before_r);

  auto commit = db_.Apply(UpdateSequence()[0]);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(db_.version(), 1u);

  // The pinned executor still serves version 0, bit for bit.
  auto after_r = pinned->executor->Execute(*parsed, ExecOptions::Full());
  ASSERT_TRUE(after_r.ok());
  BindingSet after = std::move(*after_r);
  EXPECT_EQ(DecodedRows(before, db_.dict()), DecodedRows(after, db_.dict()));

  // The current version reflects the commit (the deleted edge is gone,
  // the new ones are present).
  auto current = db_.Query(q);
  ASSERT_TRUE(current.ok());
  EXPECT_NE(DecodedRows(before, db_.dict()),
            DecodedRows(*current, db_.dict()));
}

// Staged batches are invisible until Commit publishes them.
TEST_P(UpdateTest, StagedDataInvisibleUntilCommit) {
  const std::string q = Workload()[0];
  auto before = Run(db_, q, 1);
  ASSERT_TRUE(db_.Stage(UpdateSequence()[0]).ok());
  EXPECT_EQ(Run(db_, q, 1), before);
  EXPECT_EQ(db_.version(), 0u);
  auto commit = db_.Commit();
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->version, 1u);
  EXPECT_NE(Run(db_, q, 1), before);
}

// Net-effect accounting: duplicates and absent deletes don't count; the
// empty commit publishes nothing.
TEST_P(UpdateTest, CommitStatsReportNetEffect) {
  UpdateBatch b;
  Term knows = Term::Iri(Ex("knows"));
  b.Insert(Term::Iri(Ex("p0")), knows, Term::Iri(Ex("p1")));   // duplicate
  b.Insert(Term::Iri(Ex("p0")), knows, Term::Iri(Ex("p9")));   // new
  b.Delete(Term::Iri(Ex("p0")), knows, Term::Iri(Ex("p2")));   // absent
  b.Delete(Term::Iri(Ex("p0")), knows, Term::Iri(Ex("p7")));   // present
  size_t before = db_.size();
  auto commit = db_.Apply(b);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->inserted, 1u);
  EXPECT_EQ(commit->deleted, 1u);
  EXPECT_EQ(commit->store_size, before);
  EXPECT_EQ(commit->version, 1u);

  auto empty = db_.Commit();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->version, 1u);  // no delta, no new version
  EXPECT_EQ(db_.version(), 1u);
}

// SPARQL INSERT DATA / DELETE DATA text drives the same machinery.
TEST_P(UpdateTest, SparqlUpdateTextEndToEnd) {
  auto commit = db_.Update(
      "PREFIX ex: <http://ex.org/> "
      "INSERT DATA { ex:p50 a ex:Person ; ex:knows ex:p0 , ex:p1 . "
      "              ex:p50 ex:name \"person 50\"@en } ; "
      "DELETE DATA { ex:p0 ex:knows ex:p1 }");
  ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  EXPECT_EQ(commit->inserted, 4u);
  EXPECT_EQ(commit->deleted, 1u);

  auto rows = db_.Query(std::string(kPrologue) +
                        "SELECT ?y WHERE { ex:p50 ex:knows ?y }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  auto gone = db_.Query(std::string(kPrologue) +
                        "ASK { ex:p0 ex:knows ex:p1 }");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST(UpdateParserTest, ParsesTermFormsAndAbbreviations) {
  auto batch = ParseUpdate(
      "PREFIX ex: <http://ex.org/> "
      "INSERT DATA { ex:s a ex:T ; ex:p \"lit\" , \"v\"^^ex:dt , 42 , 4.5 ; "
      "              ex:q \"hi\"@en . _:b ex:p <http://ex.org/o> }");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 7u);
  EXPECT_EQ(batch->ops[0].triple.p.lexical,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  EXPECT_TRUE(batch->ops[5].triple.o.qualifier_is_lang);
  EXPECT_TRUE(batch->ops[6].triple.s.is_blank());
  for (const UpdateOp& op : batch->ops)
    EXPECT_EQ(op.kind, UpdateOp::Kind::kInsert);
}

TEST(UpdateParserTest, RejectsVariablesAndSyntaxErrors) {
  EXPECT_FALSE(ParseUpdate("INSERT DATA { ?x <http://p> <http://o> }").ok());
  EXPECT_FALSE(ParseUpdate("INSERT { <http://s> <http://p> <http://o> }").ok());
  EXPECT_FALSE(ParseUpdate("INSERT DATA { <http://s> <http://p> }").ok());
  EXPECT_FALSE(ParseUpdate("SELECT * WHERE { ?s ?p ?o }").ok());
  EXPECT_FALSE(ParseUpdate("").ok());
}

TEST(UpdateParserTest, MixedOperationsKeepOrder) {
  auto batch = ParseUpdate(
      "DELETE DATA { <http://s> <http://p> <http://o> } ; "
      "INSERT DATA { <http://s> <http://p> <http://o> } ;");
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ(batch->ops[0].kind, UpdateOp::Kind::kDelete);
  EXPECT_EQ(batch->ops[1].kind, UpdateOp::Kind::kInsert);
}

// Terms introduced by an insert stay interned (same id) after the triple
// is deleted again — ids are never reused, so a later re-insert of the
// triple hits the same ids and pinned versions keep decoding.
TEST_P(UpdateTest, InsertedThenDeletedTermsStayInterned) {
  Term subj = Term::Iri(Ex("ephemeral"));
  Term knows = Term::Iri(Ex("knows"));
  Term obj = Term::Iri(Ex("p0"));

  UpdateBatch ins;
  ins.Insert(subj, knows, obj);
  ASSERT_TRUE(db_.Apply(ins).ok());
  TermId id = db_.dict().Lookup(subj);
  ASSERT_NE(id, kInvalidTermId);

  UpdateBatch del;
  del.Delete(subj, knows, obj);
  ASSERT_TRUE(db_.Apply(del).ok());
  EXPECT_EQ(db_.dict().Lookup(subj), id);
  EXPECT_EQ(db_.dict().Decode(id).lexical, Ex("ephemeral"));
  auto rows = db_.Query(std::string(kPrologue) +
                        "SELECT ?y WHERE { ex:ephemeral ex:knows ?y }");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

// ---------------------------------------------------------------------
// Service-level: concurrent readers + writer, plan cache invalidation.
// ---------------------------------------------------------------------

class UpdateServiceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LoadBase(&db_, &net_);
    db_.Finalize(GetParam());
  }
  Database db_;
  NetTriples net_;
};

INSTANTIATE_TEST_SUITE_P(Engines, UpdateServiceTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin),
                         [](const auto& info) {
                           return info.param == EngineKind::kWco ? "Wco"
                                                                 : "HashJoin";
                         });

// Readers hammer the service while a writer commits the whole update
// sequence. Every response reports the version it executed on and must
// match that version's from-scratch rebuild exactly — a torn read (rows
// from two versions) cannot match any rebuild.
TEST_P(UpdateServiceTest, ConcurrentReadersSeeOnlyCommittedVersions) {
  const std::string q = Workload()[0];
  std::vector<UpdateBatch> batches = UpdateSequence();

  // Expected decoded rows per version, from a twin database that replays
  // the same load + batch sequence (identical interning order => identical
  // row order; see RebuildCanonical).
  std::vector<std::vector<std::string>> expected;
  {
    Database twin;
    NetTriples ignored;
    LoadBase(&twin, &ignored);
    twin.Finalize(GetParam());
    auto r = twin.Query(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(DecodedRows(*r, twin.dict()));
    for (const UpdateBatch& batch : batches) {
      ASSERT_TRUE(twin.Apply(batch).ok());
      r = twin.Query(q);
      ASSERT_TRUE(r.ok());
      expected.push_back(DecodedRows(*r, twin.dict()));
    }
  }

  QueryService::Options sopts;
  sopts.num_threads = 4;
  QueryService service(db_, sopts);

  std::atomic<bool> done{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        QueryRequest req;
        req.text = q;
        QueryResponse resp = service.Submit(req).get();
        if (!resp.status.ok()) {
          ++mismatches;
          continue;
        }
        std::vector<std::string> rows = DecodedRows(resp.rows, db_.dict());
        if (resp.version >= expected.size() ||
            rows != expected[resp.version]) {
          ++mismatches;
        }
        ++checked;
      }
    });
  }

  for (size_t k = 0; k < batches.size(); ++k) {
    UpdateRequest up;
    up.batch = batches[k];
    UpdateResponse resp = service.SubmitUpdate(std::move(up)).get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.commit.version, k + 1);
    // Let readers overlap each committed version a little.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(service.Stats().store_version, batches.size());

  // After the writer finishes, the service serves the final version.
  QueryRequest req;
  req.text = q;
  QueryResponse final_resp = service.Submit(req).get();
  ASSERT_TRUE(final_resp.status.ok());
  EXPECT_EQ(final_resp.version, batches.size());
  EXPECT_EQ(DecodedRows(final_resp.rows, db_.dict()), expected.back());
}

// Cached plans never serve a newer version: the second submission hits the
// cache, the post-commit submission misses (version-keyed) and reflects
// the new data.
TEST_P(UpdateServiceTest, PlanCacheInvalidatedAcrossVersions) {
  const std::string q = Workload()[0];
  QueryService::Options sopts;
  sopts.num_threads = 2;
  // Plan-cache-layer test: keep repeats off the result-cache fast path.
  sopts.result_cache_bytes = 0;
  QueryService service(db_, sopts);

  QueryRequest req;
  req.text = q;
  QueryResponse first = service.Submit(req).get();
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.plan_cache_hit);
  QueryResponse second = service.Submit(req).get();
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.plan_cache_hit);
  EXPECT_EQ(DecodedRows(first.rows, db_.dict()),
            DecodedRows(second.rows, db_.dict()));

  UpdateRequest up;
  up.text =
      "PREFIX ex: <http://ex.org/> "
      "INSERT DATA { ex:p90 ex:knows ex:p0 } ; "
      "DELETE DATA { ex:p0 ex:knows ex:p1 }";
  UpdateResponse committed = service.SubmitUpdate(std::move(up)).get();
  ASSERT_TRUE(committed.status.ok()) << committed.status.ToString();

  QueryResponse third = service.Submit(req).get();
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.plan_cache_hit);  // version-keyed: old plan unreachable
  EXPECT_EQ(third.version, 1u);
  EXPECT_NE(DecodedRows(third.rows, db_.dict()),
            DecodedRows(first.rows, db_.dict()));
}

// A service constructed over a const Database refuses updates.
TEST_P(UpdateServiceTest, ReadOnlyServiceRejectsUpdates) {
  const Database& ro = db_;
  QueryService::Options sopts;
  sopts.num_threads = 1;
  QueryService service(ro, sopts);
  UpdateRequest up;
  up.text = "INSERT DATA { <http://s> <http://p> <http://o> }";
  UpdateResponse resp = service.SubmitUpdate(std::move(up)).get();
  EXPECT_EQ(resp.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Stats().updates_failed, 1u);
  EXPECT_EQ(db_.version(), 0u);
}

// Update counters aggregate per-commit stats; parse failures count as
// failed updates.
TEST_P(UpdateServiceTest, UpdateStatsAggregate) {
  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(db_, sopts);

  UpdateRequest ok;
  ok.text =
      "PREFIX ex: <http://ex.org/> INSERT DATA { ex:n1 ex:knows ex:p0 . "
      "ex:n2 ex:knows ex:p0 } ; DELETE DATA { ex:p0 ex:knows ex:p1 }";
  ASSERT_TRUE(service.SubmitUpdate(std::move(ok)).get().status.ok());
  UpdateRequest bad;
  bad.text = "INSERT DATA { broken";
  EXPECT_FALSE(service.SubmitUpdate(std::move(bad)).get().status.ok());

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.updates_submitted, 2u);
  EXPECT_EQ(stats.updates_committed, 1u);
  EXPECT_EQ(stats.updates_failed, 1u);
  EXPECT_EQ(stats.triples_inserted, 2u);
  EXPECT_EQ(stats.triples_deleted, 1u);
  EXPECT_EQ(stats.store_version, 1u);
}

}  // namespace
}  // namespace sparqluo
