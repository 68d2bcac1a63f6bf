// Write-ahead log unit suite (src/store/wal.h).
//
// Covers the log in isolation and attached to a database:
//   1. append/recover round-trips preserve versions, op kinds, op order
//      and term bytes, across segment rotation;
//   2. torn tails (partial header, length past EOF, CRC damage) in the
//      last segment truncate cleanly; the same damage in an earlier
//      segment — or a corrupt checkpoint marker — fails loudly;
//   3. checkpointing records the snapshot version durably and retires
//      covered segments;
//   4. injected write/fsync failures (EIO, ENOSPC, short writes) refuse
//      the commit with kUnavailable, never publish, keep the store
//      serving reads — HTTP updates answer 503 while queries answer
//      200 — and a retry after the fault clears succeeds;
//   5. a database recovered through snapshot + replay is bit-identical
//      (dictionary ids and all three CSR permutations) to one that
//      never crashed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/snapshot.h"
#include "http_client.h"
#include "server/query_service.h"
#include "server/sparql_endpoint.h"
#include "store/wal.h"
#include "util/fault_fs.h"

namespace sparqluo {
namespace {

using testhttp::Fetch;
using testhttp::Response;
using testhttp::UrlEncode;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name + "." +
                    std::to_string(::getpid());
  std::string cmd = "rm -rf " + dir;
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

UpdateBatch InsertBatch(int i) {
  UpdateBatch b;
  b.Insert(Term::Iri("http://ex/s" + std::to_string(i)),
           Term::Iri("http://ex/p"),
           Term::Literal("value " + std::to_string(i)));
  b.Insert(Term::Iri("http://ex/s" + std::to_string(i)),
           Term::Iri("http://ex/q"),
           Term::TypedLiteral(std::to_string(i),
                              "http://www.w3.org/2001/XMLSchema#integer"));
  return b;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Dictionary + all three CSR permutations must match exactly: same term
/// ids decoding to the same bytes, same directories, same pair arrays.
void ExpectBitIdenticalStores(const Database& a, const Database& b) {
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 0; id < a.dict().size(); ++id)
    ASSERT_EQ(a.dict().Decode(id), b.dict().Decode(id)) << "term id " << id;
  ASSERT_EQ(a.store().size(), b.store().size());
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    std::vector<std::pair<TermId, std::vector<IdPair>>> ga, gb;
    a.store().ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
      ga.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
    });
    b.store().ForEachGroup(perm, [&](TermId f, std::span<const IdPair> prs) {
      gb.emplace_back(f, std::vector<IdPair>(prs.begin(), prs.end()));
    });
    ASSERT_EQ(ga, gb) << "CSR divergence, perm " << static_cast<int>(perm);
  }
}

// --- Policy parsing ------------------------------------------------------

TEST(FsyncPolicyTest, Parses) {
  int ms = 0;
  auto p = ParseFsyncPolicy("always", &ms);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, FsyncPolicy::kAlways);
  p = ParseFsyncPolicy("off", &ms);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, FsyncPolicy::kOff);
  p = ParseFsyncPolicy("25", &ms);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, FsyncPolicy::kInterval);
  EXPECT_EQ(ms, 25);
  EXPECT_FALSE(ParseFsyncPolicy("0", &ms).ok());
  EXPECT_FALSE(ParseFsyncPolicy("-5", &ms).ok());
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", &ms).ok());
  EXPECT_FALSE(ParseFsyncPolicy("", &ms).ok());
}

// --- Round trips ---------------------------------------------------------

TEST(WalTest, AppendRecoverRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  std::vector<UpdateBatch> batches;
  for (int i = 1; i <= 5; ++i) batches.push_back(InsertBatch(i));
  batches[3].Delete(Term::Iri("http://ex/s1"), Term::Iri("http://ex/p"),
                    Term::Literal("value 1"));
  {
    auto wal = Wal::Open(dir, {});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE((*wal)->Append(static_cast<uint64_t>(i + 1),
                                 batches[static_cast<size_t>(i)].ops)
                      .ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto wal = Wal::Open(dir, {});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  WalRecoveryInfo info;
  auto records = (*wal)->Recover(0, &info);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ(info.segments_scanned, 1u);
  EXPECT_FALSE(info.torn_tail_truncated);
  for (size_t i = 0; i < records->size(); ++i) {
    const WalRecord& rec = (*records)[i];
    EXPECT_EQ(rec.version, i + 1);
    const std::vector<UpdateOp>& want = batches[i].ops;
    ASSERT_EQ(rec.batch.ops.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(rec.batch.ops[j].kind, want[j].kind);
      EXPECT_EQ(rec.batch.ops[j].triple.s, want[j].triple.s);
      EXPECT_EQ(rec.batch.ops[j].triple.p, want[j].triple.p);
      EXPECT_EQ(rec.batch.ops[j].triple.o, want[j].triple.o);
    }
  }
  // from_version filters already-checkpointed records.
  auto tail = (*wal)->Recover(3, &info);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].version, 4u);
}

TEST(WalTest, RotationSpansSegments) {
  std::string dir = FreshDir("wal_rotation");
  Wal::Options opts;
  opts.segment_bytes = 128;  // Force a rotation every record or two.
  {
    auto wal = Wal::Open(dir, opts);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 8; ++i)
      ASSERT_TRUE(
          (*wal)->Append(static_cast<uint64_t>(i), InsertBatch(i).ops).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto wal = Wal::Open(dir, opts);
  ASSERT_TRUE(wal.ok());
  WalRecoveryInfo info;
  auto records = (*wal)->Recover(0, &info);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 8u);
  EXPECT_GT(info.segments_scanned, 1u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ((*records)[i].version, i + 1);
  // Appending after recovery continues the newest segment.
  ASSERT_TRUE((*wal)->Append(9, InsertBatch(9).ops).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  auto again = Wal::Open(dir, opts);
  ASSERT_TRUE(again.ok());
  auto all = (*again)->Recover(0, &info);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 9u);
}

// --- Torn tails and corruption -------------------------------------------

std::string SoleSegmentPath(const std::string& dir) {
  FaultInjectionFileOps ops;
  auto names = ops.ListDir(dir);
  EXPECT_TRUE(names.ok());
  std::string found;
  for (const std::string& n : *names)
    if (n.rfind("wal-", 0) == 0) {
      EXPECT_TRUE(found.empty()) << "more than one segment";
      found = dir + "/" + n;
    }
  EXPECT_FALSE(found.empty());
  return found;
}

void FillThreeRecords(const std::string& dir) {
  auto wal = Wal::Open(dir, {});
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 3; ++i)
    ASSERT_TRUE(
        (*wal)->Append(static_cast<uint64_t>(i), InsertBatch(i).ops).ok());
  ASSERT_TRUE((*wal)->Close().ok());
}

TEST(WalTest, TornTailPartialRecordTruncated) {
  std::string dir = FreshDir("wal_torn_partial");
  FillThreeRecords(dir);
  std::string seg = SoleSegmentPath(dir);
  std::string bytes = ReadFileBytes(seg);
  // Chop mid-way through the last record: a crash mid-append.
  WriteFileBytes(seg, bytes.substr(0, bytes.size() - 7));

  auto wal = Wal::Open(dir, {});
  ASSERT_TRUE(wal.ok());
  WalRecoveryInfo info;
  auto records = (*wal)->Recover(0, &info);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(info.torn_tail_truncated);
  EXPECT_GT(info.truncated_bytes, 0u);
  // The torn bytes are gone from disk and appends continue cleanly.
  ASSERT_TRUE((*wal)->Append(3, InsertBatch(3).ops).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  auto again = Wal::Open(dir, {});
  ASSERT_TRUE(again.ok());
  auto all = (*again)->Recover(0, &info);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  EXPECT_FALSE(info.torn_tail_truncated);
}

TEST(WalTest, TornTailCrcDamageTruncated) {
  std::string dir = FreshDir("wal_torn_crc");
  FillThreeRecords(dir);
  std::string seg = SoleSegmentPath(dir);
  std::string bytes = ReadFileBytes(seg);
  bytes[bytes.size() - 3] ^= 0x40;  // Flip a bit inside the last payload.
  WriteFileBytes(seg, bytes);

  auto wal = Wal::Open(dir, {});
  ASSERT_TRUE(wal.ok());
  WalRecoveryInfo info;
  auto records = (*wal)->Recover(0, &info);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(info.torn_tail_truncated);
}

TEST(WalTest, CorruptionInEarlierSegmentFailsRecovery) {
  std::string dir = FreshDir("wal_earlier_corrupt");
  Wal::Options opts;
  opts.segment_bytes = 128;
  {
    auto wal = Wal::Open(dir, opts);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 6; ++i)
      ASSERT_TRUE(
          (*wal)->Append(static_cast<uint64_t>(i), InsertBatch(i).ops).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  // Damage the FIRST segment's tail — not the last segment, so the torn
  // tail heuristic must not excuse it.
  FaultInjectionFileOps raw;
  auto names = raw.ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::vector<std::string> segs;
  for (const std::string& n : *names)
    if (n.rfind("wal-", 0) == 0) segs.push_back(n);
  std::sort(segs.begin(), segs.end());
  ASSERT_GE(segs.size(), 2u);
  std::string first = dir + "/" + segs.front();
  std::string bytes = ReadFileBytes(first);
  bytes.resize(bytes.size() - 5);
  WriteFileBytes(first, bytes);

  auto wal = Wal::Open(dir, opts);
  ASSERT_TRUE(wal.ok());
  WalRecoveryInfo info;
  auto records = (*wal)->Recover(0, &info);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kParseError);
}

TEST(WalTest, CorruptCheckpointMarkerFailsOpen) {
  std::string dir = FreshDir("wal_bad_marker");
  {
    auto wal = Wal::Open(dir, {});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, InsertBatch(1).ops).ok());
    ASSERT_TRUE((*wal)->Checkpoint(1, 2).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::string marker = dir + "/checkpoint";
  std::string bytes = ReadFileBytes(marker);
  bytes[10] ^= 0x01;
  WriteFileBytes(marker, bytes);
  auto wal = Wal::Open(dir, {});
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kParseError);
}

// --- Checkpointing -------------------------------------------------------

TEST(WalTest, CheckpointRetiresCoveredSegments) {
  std::string dir = FreshDir("wal_checkpoint");
  auto wal = Wal::Open(dir, {});
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 4; ++i)
    ASSERT_TRUE(
        (*wal)->Append(static_cast<uint64_t>(i), InsertBatch(i).ops).ok());
  ASSERT_TRUE((*wal)->Checkpoint(4, 42).ok());
  EXPECT_EQ((*wal)->checkpoint_version(), 4u);
  EXPECT_EQ((*wal)->checkpoint_store_size(), 42u);
  // Everything at or below v4 is snapshot-covered: nothing left to replay.
  WalRecoveryInfo info;
  {
    auto verify = Wal::Open(dir, {});
    ASSERT_TRUE(verify.ok());
    EXPECT_EQ((*verify)->checkpoint_version(), 4u);
    auto records = (*verify)->Recover((*verify)->checkpoint_version(), &info);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    EXPECT_TRUE(records->empty());
  }
  // Records appended after the checkpoint land in the fresh segment and
  // survive the next recovery.
  ASSERT_TRUE((*wal)->Append(5, InsertBatch(5).ops).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  auto again = Wal::Open(dir, {});
  ASSERT_TRUE(again.ok());
  auto records = (*again)->Recover((*again)->checkpoint_version(), &info);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].version, 5u);
}

// --- Fault injection: commits refuse, reads keep serving -----------------

TEST(WalFaultTest, FsyncFailureRefusesCommitAndRetrySucceeds) {
  std::string dir = FreshDir("wal_fault_fsync");
  FaultInjectionFileOps fault;
  Database db;
  db.AddTriple(Term::Iri("http://ex/base"), Term::Iri("http://ex/p"),
               Term::Literal("seed"));
  db.Finalize(EngineKind::kWco);
  Wal::Options wopts;
  wopts.ops = &fault;
  ASSERT_TRUE(db.OpenWal(dir, wopts).ok());
  ASSERT_TRUE(db.Apply(InsertBatch(1)).ok());

  fault.FailFsync(/*nth=*/0, EIO, /*sticky=*/true);
  auto failed = db.Apply(InsertBatch(2));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  // Nothing published: still at v1, and reads keep answering.
  EXPECT_EQ(db.version(), 1u);
  auto rows = db.Query("SELECT ?o WHERE { <http://ex/s1> <http://ex/p> ?o }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);

  // The staged batch survives the refusal; once the device recovers the
  // very same commit goes through.
  fault.Disarm();
  auto retried = db.Commit();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->version, 2u);
  rows = db.Query("SELECT ?o WHERE { <http://ex/s2> <http://ex/p> ?o }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(WalFaultTest, WriteFailureRollsBackAndEnospcIsClean) {
  std::string dir = FreshDir("wal_fault_write");
  FaultInjectionFileOps fault;
  Database db;
  db.Finalize(EngineKind::kWco);
  Wal::Options wopts;
  wopts.ops = &fault;
  ASSERT_TRUE(db.OpenWal(dir, wopts).ok());
  ASSERT_TRUE(db.Apply(InsertBatch(1)).ok());

  // A short write followed by sticky ENOSPC: WriteAll makes partial
  // progress then fails, and the append must truncate the tail back.
  fault.ShortWrite(/*nth=*/0);
  fault.FailWrite(/*nth=*/0, ENOSPC, /*sticky=*/true);
  auto failed = db.Apply(InsertBatch(2));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(db.version(), 1u);

  fault.Disarm();
  auto retried = db.Commit();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->version, 2u);
  // The rolled-back partial record must not confuse recovery.
  Database recovered;
  recovered.Finalize(EngineKind::kWco);
  auto info = recovered.OpenWal(dir, {});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->records_replayed, 2u);
  EXPECT_FALSE(info->torn_tail_truncated);
  ExpectBitIdenticalStores(db, recovered);
}

TEST(WalFaultTest, HttpUpdatesAnswer503WhileQueriesKeepServing) {
  std::string dir = FreshDir("wal_fault_http");
  FaultInjectionFileOps fault;
  Database db;
  db.AddTriple(Term::Iri("http://ex/base"), Term::Iri("http://ex/p"),
               Term::Literal("seed"));
  db.Finalize(EngineKind::kWco);
  Wal::Options wopts;
  wopts.ops = &fault;
  ASSERT_TRUE(db.OpenWal(dir, wopts).ok());

  QueryService::Options sopts;
  sopts.num_threads = 2;
  QueryService service(db, sopts);
  SparqlEndpoint endpoint(service, db.dict(), {});
  ASSERT_TRUE(endpoint.Start().ok());

  fault.FailFsync(/*nth=*/0, EIO, /*sticky=*/true);
  std::string form =
      "update=" +
      UrlEncode("INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }");
  Response update = Fetch(
      endpoint.port(),
      "POST /update HTTP/1.1\r\nHost: t\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " + std::to_string(form.size()) +
      "\r\nConnection: close\r\n\r\n" + form);
  ASSERT_TRUE(update.ok);
  EXPECT_EQ(update.status, 503);

  Response query = Fetch(
      endpoint.port(),
      "GET /sparql?query=" +
          UrlEncode("SELECT ?o WHERE { <http://ex/base> <http://ex/p> ?o }") +
          " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(query.ok);
  EXPECT_EQ(query.status, 200);

  fault.Disarm();
  Response retry = Fetch(
      endpoint.port(),
      "POST /update HTTP/1.1\r\nHost: t\r\n"
      "Content-Type: application/x-www-form-urlencoded\r\n"
      "Content-Length: " + std::to_string(form.size()) +
      "\r\nConnection: close\r\n\r\n" + form);
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.status, 200) << retry.body;
  endpoint.Stop();
  service.Shutdown();
}

// --- Snapshot + WAL: checkpointed recovery is bit-identical --------------

TEST(WalTest, SnapshotCheckpointAndReplayBitIdentical) {
  std::string dir = FreshDir("wal_ckpt_replay");
  std::string snap = ::testing::TempDir() + "wal_ckpt_replay.snap";
  std::remove(snap.c_str());

  Database reference;
  reference.AddTriple(Term::Iri("http://ex/base"), Term::Iri("http://ex/p"),
                      Term::Literal("seed"));
  reference.Finalize(EngineKind::kWco);

  {
    Database db;
    db.AddTriple(Term::Iri("http://ex/base"), Term::Iri("http://ex/p"),
                 Term::Literal("seed"));
    db.Finalize(EngineKind::kWco);
    ASSERT_TRUE(db.OpenWal(dir, {}).ok());
    for (int i = 1; i <= 3; ++i) ASSERT_TRUE(db.Apply(InsertBatch(i)).ok());
    // Checkpoint at v3, then two more commits that only the log holds.
    ASSERT_TRUE(SaveSnapshot(db, snap).ok());
    ASSERT_EQ(db.wal()->checkpoint_version(), 3u);
    for (int i = 4; i <= 5; ++i) ASSERT_TRUE(db.Apply(InsertBatch(i)).ok());
  }
  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(reference.Apply(InsertBatch(i)).ok());

  Database recovered;
  ASSERT_TRUE(LoadSnapshot(snap, &recovered).ok());
  recovered.Finalize(EngineKind::kWco);
  auto info = recovered.OpenWal(dir, {});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->checkpoint_version, 3u);
  EXPECT_EQ(info->records_replayed, 2u);
  EXPECT_EQ(recovered.version(), 5u);
  ExpectBitIdenticalStores(reference, recovered);
}

// --- Snapshot durability faults ------------------------------------------

TEST(SnapshotFaultTest, SaveFailuresLeavePriorSnapshotIntact) {
  std::string path = ::testing::TempDir() + "snapshot_fault.snap";
  std::remove(path.c_str());
  Database db;
  db.AddTriple(Term::Iri("http://ex/s"), Term::Iri("http://ex/p"),
               Term::Literal("v1"));
  db.Finalize(EngineKind::kWco);
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  std::string good = ReadFileBytes(path);

  // File-fsync failure: the temporary must not replace the good file.
  FaultInjectionFileOps fault;
  fault.FailFsync(/*nth=*/0, EIO, /*sticky=*/true);
  Status s = SaveSnapshot(db, path, &fault);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReadFileBytes(path), good);

  // Write failure mid-stream: same guarantee.
  fault.Disarm();
  fault.FailWrite(/*nth=*/0, ENOSPC, /*sticky=*/true);
  s = SaveSnapshot(db, path, &fault);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReadFileBytes(path), good);

  // And once the device behaves, saving over the survivor works.
  fault.Disarm();
  ASSERT_TRUE(SaveSnapshot(db, path, &fault).ok());
  EXPECT_GT(fault.fsyncs(), 0);
  EXPECT_GT(fault.dir_syncs(), 0);
  EXPECT_EQ(ReadFileBytes(path), good);
}

}  // namespace
}  // namespace sparqluo
