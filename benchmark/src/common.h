// Shared types of the benchmark program: configuration, the served
// datasets, timed-window results and small measurement helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/query_service.h"
#include "server/sparql_endpoint.h"
#include "streams.h"

namespace sqbench {

using Clock = std::chrono::steady_clock;

enum class Workload { kDistinct, kHot, kPaper, kRw };

/// lubm-rw's writer schedule (open loop).
inline constexpr double kCommitsPerSecond = 4.0;
/// Share of responses the correctness gate re-checks: 1 in kSampleEvery.
inline constexpr uint64_t kSampleEvery = 32;

struct Config {
  Workload workload = Workload::kDistinct;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Per-run scratch (WAL directories), removed when the run ends.
  std::string work_dir;
  /// Client threads, one per core and at least two (C in the README).
  size_t clients = std::max(2u, std::thread::hardware_concurrency());
  size_t lubm_universities = 13;
  size_t dbpedia_articles = 30000;
};

/// The load generator's threads, each with its own connection: C, of which
/// lubm-rw's last is the writer; one caller for paper-embedded; C/2 for
/// lubm-hot. At C, lubm-hot's ~0.1 ms requests run nine threads on four
/// cores and its runs spread by 15-19% (interquartile range / median over
/// eight seeds); at C/2, interleaved with them, by 10-11%.
inline size_t LoadThreads(const Config& cfg) {
  switch (cfg.workload) {
    case Workload::kPaper:
      return 1;
    case Workload::kHot:
      return std::max<size_t>(1, cfg.clients / 2);
    default:
      return cfg.clients;
  }
}

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// FNV-1a digest of a byte stream: compares response bodies with renders
/// that are never kept whole. With `hashing` off it only counts bytes.
struct Digest {
  bool hashing = true;
  uint64_t hash = 1469598103934665603ULL;
  size_t bytes = 0;
  void Add(std::string_view s) {
    bytes += s.size();
    if (!hashing) return;
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
  }
  bool operator==(const Digest&) const = default;
};

/// `rows` rendered by the endpoint's JSON writer; with `hashing` off it
/// only counts the bytes.
Digest RenderJson(const sparqluo::BindingSet& rows,
                  const sparqluo::VarTable& vars,
                  const sparqluo::Dictionary& dict, bool hashing = true);

/// One database with, when served, its query service and HTTP endpoint
/// (all shipped defaults). Members are destroyed endpoint first.
struct Dataset {
  std::unique_ptr<sparqluo::Database> db;
  std::unique_ptr<sparqluo::QueryService> service;
  std::unique_ptr<sparqluo::SparqlEndpoint> endpoint;
};

/// The datasets of one workload: [0] LUBM, [1] DBpedia (paper only).
struct Stack {
  std::vector<Dataset> sets;
  std::string wal_dir;  ///< LUBM's write-ahead log; empty when none
  double finalize_s = 0.0;
};

/// Loads the workload's datasets. `serve` starts a service and endpoint
/// on each; a non-empty `wal_dir` attaches a log (fsync always) to LUBM.
Stack Setup(const Config& cfg, bool serve, const std::string& wal_dir);

/// Everything the request streams need, derived from the loaded data.
struct Streams {
  LubmTemplates templates;
  LubmAnchors anchors;
  std::unique_ptr<HotPool> hot;
  std::vector<Request> paper;
  std::vector<size_t> paper_rows;  ///< expected row count per paper query
};
Streams MakeStreams(const Config& cfg, const Stack& stack);

/// One client's read requests: lubm-distinct's rounds (also lubm-rw's
/// readers) or lubm-hot's pool, drawn with `rng`.
using RequestSource = std::function<Request()>;
RequestSource ReaderSource(const Config& cfg, const Streams& streams,
                           sparqluo::Random rng);

/// A response kept for the correctness gate (a seeded 1-in-32 sample).
struct Sample {
  size_t db = 0;
  std::string text;
  bool has_body = false;  ///< HTTP: `body` must match the in-process render
  Digest body;
};

/// Outcome of one untraced timed window.
struct Window {
  std::vector<double> read_ms;  ///< successful reads
  size_t attempted = 0;         ///< reads + writes
  size_t failed = 0;
  double wall_s = 0.0;
  std::vector<Sample> samples;
  /// Writer: acknowledgement - due time, one per acknowledged commit.
  std::vector<double> commit_ms;
  double writer_late_ms = 0.0;    ///< worst send delay behind schedule
  /// read_ms by query (paper-embedded) or template (the others) id.
  std::map<std::string, std::vector<double>> by_query_ms;
  std::vector<std::string> errors;  ///< correctness violations seen inline
};

/// Runs the workload's own traffic for `seconds` (hot: after one untimed
/// pass over its pool).
Window RunWindow(const Config& cfg, Stack& stack, const Streams& streams,
                 double seconds);

/// Re-executes every sampled request in process: HTTP bodies must be
/// byte-identical to Database::Query rendered by the same writer, and rows
/// must equal a hash-join executor's on the same version. Appends each
/// violation to `errors`.
void CheckSamples(const Stack& stack, const std::vector<Sample>& samples,
                  std::vector<std::string>* errors);

/// Restart: stops serving, closes the log, loads LUBM afresh and replays
/// the log into it. Checks the recovered version against `acked_commits`
/// and its size against the live store.
struct Recovery {
  double seconds = 0.0;
  uint64_t records = 0;
};
Recovery Recover(const Config& cfg, Stack& stack, uint64_t acked_commits,
                 std::vector<std::string>* errors);

inline void ShutdownServing(Stack& stack) {
  for (Dataset& set : stack.sets) {
    if (set.endpoint) set.endpoint->Stop();
    if (set.service) set.service->Shutdown();
  }
}

/// Every client connects first; then all start on one clock.
struct StartGate {
  explicit StartGate(size_t clients) : ready(static_cast<ptrdiff_t>(clients)) {}
  std::latch ready;
  std::latch go{1};
  Clock::time_point start, deadline;

  /// Client side: returns once the window is open.
  void ArriveAndWait() {
    ready.count_down();
    go.wait();
  }
  /// Measuring thread's side.
  void Open(double seconds) {
    ready.wait();
    start = Clock::now();
    deadline = start + std::chrono::microseconds(
                           static_cast<int64_t>(seconds * 1e6));
    go.count_down();
  }
};

/// A service submission of `text` with the shipped defaults.
inline sparqluo::QueryRequest TextRequest(const std::string& text) {
  sparqluo::QueryRequest r;
  r.text = text;
  return r;
}

/// GET /sparql request for `text` on a keep-alive connection.
std::string GetRequest(const std::string& text);

}  // namespace sqbench
