// Kill-at-every-crash-point recovery suite.
//
// For each CrashPoint (src/util/fault_fs.h) the parent re-execs this
// binary as a child running a fixed, deterministic workload with the
// fault armed; the child dies mid-operation via _exit (no flushing, no
// destructors — the userspace stand-in for SIGKILL). The parent then
// recovers from whatever the child left on disk and asserts the
// durability contract:
//
//   * every acknowledged commit is present, bit-identically — same
//     dictionary ids, same CSR pair arrays — as a reference database
//     that never crashed, and answers queries identically on both
//     engines;
//   * at most one unacknowledged-but-fully-logged commit may surface
//     (the record hit the log; the crash beat the acknowledgment);
//   * a commit whose append never started is never visible.
//
// The child acknowledges each commit by appending a line to an ack file
// and fsyncing it, so the parent knows exactly what was promised.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/snapshot.h"
#include "store/wal.h"
#include "util/fault_fs.h"

namespace sparqluo {
namespace {

constexpr char kSpecEnv[] = "SPARQLUO_CRASH_SPEC";
constexpr int kCrashExit = 86;  // fault_fs.cc's kCrashExitCode.

/// The deterministic workload both the child and the reference replayer
/// run: batch i commits as version i.
UpdateBatch WorkloadBatch(int i) {
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

void SeedDatabase(Database* db) {
  db->AddTriple(Term::Iri("http://ex/base"), Term::Iri("http://ex/p"),
                Term::Literal("seed"));
}

bool IsCheckpointPoint(CrashPoint p) {
  return p == CrashPoint::kCheckpointAfterTmpWrite ||
         p == CrashPoint::kCheckpointAfterRename ||
         p == CrashPoint::kCheckpointAfterMarker ||
         p == CrashPoint::kCheckpointAfterRetire;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// --- Child side ----------------------------------------------------------

/// Runs the workload with the armed crash point and never returns
/// normally if the fault fires. Selected only by the parent via
/// --gtest_filter; skipped in a regular test run.
TEST(CrashChild, Run) {
  const char* spec = std::getenv(kSpecEnv);
  if (spec == nullptr) GTEST_SKIP() << "parent-driven child only";
  // Spec: "<point>:<nth>:<dir>".
  int point_int = 0, nth = 0;
  std::string dir;
  {
    std::istringstream in(spec);
    std::string field;
    ASSERT_TRUE(std::getline(in, field, ':'));
    point_int = std::stoi(field);
    ASSERT_TRUE(std::getline(in, field, ':'));
    nth = std::stoi(field);
    ASSERT_TRUE(std::getline(in, dir));
  }
  const CrashPoint point = static_cast<CrashPoint>(point_int);

  static FaultInjectionFileOps fault;  // Outlives the database's Wal.
  fault.CrashAt(point, nth);

  Database db;
  SeedDatabase(&db);
  db.Finalize(EngineKind::kWco);
  Wal::Options wopts;
  wopts.ops = &fault;
  ASSERT_TRUE(db.OpenWal(dir + "/wal", wopts).ok());

  int ack_fd = ::open((dir + "/acks").c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(ack_fd, 0);
  auto ack = [&](uint64_t version) {
    std::string line = std::to_string(version) + "\n";
    ASSERT_EQ(::write(ack_fd, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
    ASSERT_EQ(::fsync(ack_fd), 0);
  };

  const int commits = IsCheckpointPoint(point) ? 3 : 4;
  for (int i = 1; i <= commits; ++i) {
    auto stats = db.Apply(WorkloadBatch(i));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ack(stats->version);
  }
  if (IsCheckpointPoint(point)) {
    // The crash fires inside the snapshot publish / WAL checkpoint path.
    Status s = SaveSnapshot(db, dir + "/snap", &fault);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  // Reaching here means the armed point never fired — the parent treats
  // the zero exit as a test-harness bug.
}

// --- Parent side ---------------------------------------------------------

uint64_t MaxAckedVersion(const std::string& dir) {
  std::ifstream in(dir + "/acks");
  uint64_t max_acked = 0, v = 0;
  while (in >> v) max_acked = std::max(max_acked, v);
  return max_acked;
}

/// Recovers from the child's debris: snapshot if one was published, the
/// seed otherwise, plus WAL replay.
void RecoverDatabase(const std::string& dir, EngineKind kind, Database* db,
                     WalRecoveryInfo* info) {
  if (FileExists(dir + "/snap")) {
    ASSERT_TRUE(LoadSnapshot(dir + "/snap", db).ok());
  } else {
    SeedDatabase(db);
  }
  db->Finalize(kind);
  auto recovered = db->OpenWal(dir + "/wal", {});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  *info = *recovered;
}

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

/// Query-level equivalence on one engine: same rows in the same order.
void ExpectSameAnswers(const Database& a, const Database& b) {
  for (const char* q :
       {"SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
        "SELECT ?s ?v WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?v }"}) {
    auto ra = a.Query(q);
    auto rb = b.Query(q);
    ASSERT_TRUE(ra.ok() && rb.ok()) << q;
    ASSERT_EQ(ra->size(), rb->size()) << q;
    for (size_t r = 0; r < ra->size(); ++r)
      for (size_t c = 0; c < ra->width(); ++c)
        ASSERT_EQ(ra->At(r, c), rb->At(r, c)) << q;
  }
}

void RunCrashPoint(CrashPoint point, int nth) {
  SCOPED_TRACE(std::string("crash point ") + CrashPointName(point));
  std::string dir = ::testing::TempDir() + "crash." +
                    std::to_string(static_cast<int>(point)) + "." +
                    std::to_string(::getpid());
  ASSERT_EQ(std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);

  // Re-exec ourselves as the crash child. system() is fine here: the
  // command and paths are test-controlled. /proc/self/exe must resolve
  // in this process, not inside the `sh -c` the command runs under.
  char self[4096];
  ssize_t self_len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  ASSERT_GT(self_len, 0);
  self[self_len] = '\0';
  std::string cmd = std::string(kSpecEnv) + "=" +
                    std::to_string(static_cast<int>(point)) + ":" +
                    std::to_string(nth) + ":" + dir + " " + self +
                    " --gtest_filter=CrashChild.Run >/dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  ASSERT_EQ(WEXITSTATUS(rc), kCrashExit)
      << "child was supposed to die at the armed crash point";

  const uint64_t max_acked = MaxAckedVersion(dir);
  Database recovered;
  WalRecoveryInfo info;
  RecoverDatabase(dir, EngineKind::kWco, &recovered, &info);

  // Every ack is honored; at most the one in-flight commit may surface.
  ASSERT_GE(recovered.version(), max_acked);
  ASSERT_LE(recovered.version(), max_acked + 1);

  // Bit-identical to a database that committed the same prefix and never
  // crashed.
  Database reference;
  SeedDatabase(&reference);
  reference.Finalize(EngineKind::kWco);
  for (uint64_t i = 1; i <= recovered.version(); ++i)
    ASSERT_TRUE(reference.Apply(WorkloadBatch(static_cast<int>(i))).ok());
  ExpectBitIdenticalStores(reference, recovered);
  ExpectSameAnswers(reference, recovered);

  // A commit whose append never started must not be visible.
  auto beyond = recovered.Query(
      "SELECT ?o WHERE { <http://ex/s" +
      std::to_string(recovered.version() + 1) + "> ?p ?o }");
  ASSERT_TRUE(beyond.ok());
  EXPECT_TRUE(beyond->empty());

  // The recovered state is engine-independent: the second engine over the
  // same debris answers identically to its own never-crashed reference.
  Database recovered_hj;
  WalRecoveryInfo info_hj;
  RecoverDatabase(dir, EngineKind::kHashJoin, &recovered_hj, &info_hj);
  Database reference_hj;
  SeedDatabase(&reference_hj);
  reference_hj.Finalize(EngineKind::kHashJoin);
  for (uint64_t i = 1; i <= recovered_hj.version(); ++i)
    ASSERT_TRUE(reference_hj.Apply(WorkloadBatch(static_cast<int>(i))).ok());
  ASSERT_EQ(recovered_hj.version(), recovered.version());
  ExpectSameAnswers(reference_hj, recovered_hj);

  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
}

// The workload appends four times; nth=3 arms the fault for the fourth
// append, so versions 1-3 are acknowledged before the crash.
TEST(CrashRecoveryTest, KilledBeforeAppend) {
  RunCrashPoint(CrashPoint::kWalBeforeAppend, /*nth=*/3);
}

TEST(CrashRecoveryTest, KilledAfterAppendBeforeFsync) {
  RunCrashPoint(CrashPoint::kWalAfterAppend, /*nth=*/3);
}

TEST(CrashRecoveryTest, KilledAfterFsyncBeforeAck) {
  RunCrashPoint(CrashPoint::kWalAfterFsync, /*nth=*/3);
}

TEST(CrashRecoveryTest, KilledFirstEverAppend) {
  RunCrashPoint(CrashPoint::kWalBeforeAppend, /*nth=*/0);
}

TEST(CrashRecoveryTest, KilledAfterCheckpointTmpWrite) {
  RunCrashPoint(CrashPoint::kCheckpointAfterTmpWrite, /*nth=*/0);
}

TEST(CrashRecoveryTest, KilledAfterCheckpointRename) {
  RunCrashPoint(CrashPoint::kCheckpointAfterRename, /*nth=*/0);
}

TEST(CrashRecoveryTest, KilledAfterCheckpointMarker) {
  RunCrashPoint(CrashPoint::kCheckpointAfterMarker, /*nth=*/0);
}

TEST(CrashRecoveryTest, KilledAfterCheckpointRetire) {
  RunCrashPoint(CrashPoint::kCheckpointAfterRetire, /*nth=*/0);
}

}  // namespace
}  // namespace sparqluo
