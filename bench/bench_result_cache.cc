// Result-cache and dedup benchmark.
//
// Two sections over in-process QueryService instances:
//
//   1. hit vs miss latency: every LUBM paper query is run cold (result-
//      cache miss: parse + plan + execute) and then repeatedly warm
//      (result-cache hit: a rows copy), reporting per-query and aggregate
//      medians. The --smoke gate asserts aggregate hit latency is below
//      aggregate miss latency — the cache must actually be a shortcut.
//   2. dedup fan-in: one leader plus N-1 identical concurrent submissions
//      of a transitive-closure query; reports how many were deduped and
//      the wall time for all N relative to one execution.
//
// Usage:
//   bench_result_cache [--json FILE] [--lubm N] [--repeats K]
//                      [--fan-in N] [--chain N] [--smoke]
//
// --smoke shrinks to LUBM(1), 3 repeats, fan-in 16, and enforces the
// hit < miss gate (exit 1 on failure).
// BENCH_result_cache.json schema: docs/benchmarks.md.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/query_service.h"
#include "workload/paper_queries.h"

namespace {

using namespace sparqluo;
using namespace sparqluo::bench;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct QueryLatency {
  std::string id;
  size_t rows = 0;
  double miss_ms = 0.0;  ///< Cold run: parse + plan + execute.
  double hit_ms = 0.0;   ///< Median warm run: result-cache copy.
};

std::string ChainNTriples(int n) {
  std::string nt;
  for (int i = 0; i < n; ++i)
    nt += "<http://ex.org/n" + std::to_string(i) + "> <http://ex.org/knows> " +
          "<http://ex.org/n" + std::to_string(i + 1) + "> .\n";
  return nt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_result_cache.json";
  size_t lubm = LubmUniversities();
  size_t repeats = 9;
  size_t fan_in = 64;
  int chain = 1500;
  bool smoke = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--json") json_path = next();
    else if (arg == "--lubm") lubm = static_cast<size_t>(std::atol(next()));
    else if (arg == "--repeats") repeats = static_cast<size_t>(std::atol(next()));
    else if (arg == "--fan-in") fan_in = static_cast<size_t>(std::atol(next()));
    else if (arg == "--chain") chain = static_cast<int>(std::atol(next()));
    else if (arg == "--smoke") smoke = true;
    else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (smoke) {
    lubm = 1;
    repeats = 3;
    fan_in = 16;
  }
  bool gate_failed = false;

  // --- 1. hit vs miss latency -------------------------------------------
  std::cerr << "# building LUBM(" << lubm << ")...\n";
  auto db = MakeLubm(lubm, EngineKind::kWco);
  const auto& workload = LubmPaperQueries();

  std::vector<QueryLatency> latencies;
  {
    QueryService::Options sopts;
    sopts.num_threads = 2;
    QueryService service(static_cast<const Database&>(*db), sopts);
    for (const PaperQuery& q : workload) {
      QueryLatency lat;
      lat.id = q.id;
      ExecOptions exec = ExecOptions::Full();
      exec.max_intermediate_rows = kRowLimit;

      Clock::time_point start = Clock::now();
      QueryRequest cold;
      cold.text = q.sparql;
      cold.options = exec;
      QueryResponse r = service.Submit(std::move(cold)).get();
      lat.miss_ms = MsSince(start);
      if (!r.status.ok()) continue;  // row-limit-guarded heavy queries
      lat.rows = r.rows.size();

      std::vector<double> warm;
      for (size_t k = 0; k < repeats; ++k) {
        start = Clock::now();
        QueryRequest req;
        req.text = q.sparql;
        req.options = exec;
        QueryResponse w = service.Submit(std::move(req)).get();
        warm.push_back(MsSince(start));
        if (!w.result_cache_hit) {
          std::cerr << "# FAIL: warm run of " << q.id
                    << " was not a result-cache hit\n";
          gate_failed = true;
        }
      }
      lat.hit_ms = Median(warm);
      latencies.push_back(lat);
      std::cerr << "# " << lat.id << " rows=" << lat.rows << " miss="
                << lat.miss_ms << "ms hit=" << lat.hit_ms << "ms\n";
    }
  }
  double total_miss = 0.0, total_hit = 0.0;
  for (const QueryLatency& l : latencies) {
    total_miss += l.miss_ms;
    total_hit += l.hit_ms;
  }
  std::cerr << "# aggregate miss=" << total_miss << "ms hit=" << total_hit
            << "ms (" << latencies.size() << " queries)\n";
  if (smoke && !(total_hit < total_miss)) {
    std::cerr << "# FAIL: aggregate hit latency " << total_hit
              << "ms not below miss latency " << total_miss << "ms\n";
    gate_failed = true;
  }

  // --- 2. dedup fan-in ---------------------------------------------------
  Database chain_db;
  if (!chain_db.LoadNTriplesString(ChainNTriples(chain)).ok()) return 1;
  chain_db.Finalize(EngineKind::kWco);
  const std::string closure =
      "SELECT ?x ?y WHERE { ?x <http://ex.org/knows>+ ?y }";

  double solo_ms = 0.0, fanin_ms = 0.0;
  uint64_t deduped = 0, executions = 0;
  uint64_t dedup_followers = 0, rc_hits = 0, rc_oversize = 0;
  {
    QueryService::Options sopts;
    sopts.num_threads = 8;
    QueryService service(static_cast<const Database&>(chain_db), sopts);

    // Reference: one execution, nothing to join.
    Clock::time_point start = Clock::now();
    QueryRequest solo;
    solo.text = closure;
    QueryResponse r = service.Submit(std::move(solo)).get();
    solo_ms = MsSince(start);
    if (!r.status.ok()) return 1;

    // Leader + (fan_in - 1) identical submissions against a fresh service
    // (empty caches). The pool is sized to the fan-in so every follower
    // can wait on the leader concurrently — a smaller pool queues the
    // overflow behind the leader and measures a second round instead.
    QueryService::Options fresh_opts;
    fresh_opts.num_threads = fan_in;
    QueryService fresh(static_cast<const Database&>(chain_db), fresh_opts);
    start = Clock::now();
    std::vector<std::future<QueryResponse>> futures;
    QueryRequest leader;
    leader.text = closure;
    futures.push_back(fresh.Submit(std::move(leader)));
    while (fresh.CacheStats().misses < 1)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    for (size_t i = 1; i < fan_in; ++i) {
      QueryRequest req;
      req.text = closure;
      futures.push_back(fresh.Submit(std::move(req)));
    }
    for (auto& f : futures) {
      QueryResponse resp = f.get();
      if (!resp.status.ok()) return 1;
      if (!resp.deduped && !resp.result_cache_hit) ++executions;
    }
    fanin_ms = MsSince(start);
    ServiceStatsSnapshot stats = fresh.Stats();
    deduped = stats.deduped;
    dedup_followers = stats.dedup_followers;
    rc_hits = fresh.ResultCacheStats().hits;
    rc_oversize = fresh.ResultCacheStats().oversize;
  }
  std::cerr << "# dedup: fan_in=" << fan_in << " solo=" << solo_ms
            << "ms all=" << fanin_ms << "ms deduped=" << deduped
            << " executions=" << executions << "\n";
  std::cerr << "# dedup-debug: followers=" << dedup_followers
            << " rc_hits=" << rc_hits << " rc_oversize=" << rc_oversize
            << "\n";
  if (smoke && executions != 1) {
    std::cerr << "# FAIL: " << executions
              << " executions for identical concurrent queries\n";
    gate_failed = true;
  }

  // --- JSON ---------------------------------------------------------------
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"result_cache\",\n  \"config\": {\n"
      << "    \"lubm_universities\": " << lubm << ",\n"
      << "    \"repeats\": " << repeats << ",\n"
      << "    \"fan_in\": " << fan_in << ",\n"
      << "    \"chain\": " << chain << "\n"
      << "  },\n  \"latency\": [\n";
  for (size_t i = 0; i < latencies.size(); ++i) {
    const QueryLatency& l = latencies[i];
    out << "    {\"id\": \"" << l.id << "\", \"rows\": " << l.rows
        << ", \"miss_ms\": " << l.miss_ms << ", \"hit_ms\": " << l.hit_ms
        << "}" << (i + 1 < latencies.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"latency_total\": {\"miss_ms\": " << total_miss
      << ", \"hit_ms\": " << total_hit << "},\n"
      << "  \"dedup\": {\"fan_in\": " << fan_in << ", \"solo_ms\": "
      << solo_ms << ", \"all_ms\": " << fanin_ms << ", \"deduped\": "
      << deduped << ", \"executions\": " << executions << "}\n}\n";
  std::cerr << "# wrote " << json_path << "\n";
  return gate_failed ? 1 : 0;
}
