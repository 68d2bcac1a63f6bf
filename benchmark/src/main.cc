// sparqluo end-to-end benchmark program: one workload per process.
//
//   sparqluo_bench --workload lubm-distinct|lubm-hot|paper-embedded|lubm-rw
//                  --seed N --seconds S --trace 0|1 [--smoke]
//
// Runs from the repository root and writes only below build/benchmark.
//
// Prints one `workload metric value unit` line per metric, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when the correctness gate fails. benchmark/run.py builds and runs this;
// benchmark/README.md defines every workload and metric.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "traced.h"

namespace sqbench {
namespace {

using namespace sparqluo;

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The build directory, relative to the repository root the program runs
/// from; runs write only below it.
constexpr const char* kOutDir = "build/benchmark";

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;       ///< printed after the value line, e.g. a sample count
  bool reported = true;   ///< part of the final JSON line
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note), true});
  }
  /// Printed for the reader only; not part of the JSON result line.
  void Extra(std::string name, double value, std::string unit,
             std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note), false});
  }
  /// A ratio with its base; 0 when the base is 0.
  void Ratio(std::string name, double num, double base,
             std::string unit = "ratio") {
    Add(std::move(name), base > 0 ? num / base : 0.0, std::move(unit),
        "base " + Num(base));
  }

  static std::string Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
  }

  void Print(const Config& cfg, bool correct, size_t attempted,
             size_t failed) const {
    for (const Metric& m : metrics_) {
      std::cout << cfg.name << " " << m.name << " " << Num(m.value) << " "
                << m.unit;
      if (!m.note.empty()) std::cout << "  # " << m.note;
      std::cout << "\n";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : metrics_) {
      if (!m.reported) continue;
      std::cout << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
                << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
};

/// A /proc/self/status memory line ("VmRSS:", "VmHWM:") in MB.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size()) / 1024.0;
  return 0.0;
}

std::string SampleNote(size_t n) { return std::to_string(n) + " samples"; }

/// Sample count and how many samples lie beyond percentile `pct`.
std::string BeyondNote(size_t n, size_t pct) {
  return SampleNote(n) + ", " + std::to_string(n - (n * pct + 99) / 100) + " beyond";
}

struct Outcome {
  std::vector<std::string> errors;
  size_t attempted = 0;
  size_t failed = 0;
};

void RunUntraced(const Config& cfg, Report* report, Outcome* outcome) {
  const bool serve = cfg.workload != Workload::kPaper;
  const bool rw = cfg.workload == Workload::kRw;
  std::vector<double> setup_s;
  Stack stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack = Stack{};  // the previous set-up is torn down untimed
    std::string wal_dir;
    if (rw) {
      wal_dir = cfg.work_dir + "/wal-" + std::to_string(rep);
      std::filesystem::remove_all(wal_dir);
    }
    auto t0 = Clock::now();
    stack = Setup(cfg, serve, wal_dir);
    setup_s.push_back(Seconds(Clock::now() - t0));
  }
  // Hand back what the torn-down set-ups freed, so the reading reflects the
  // live data.
  ::malloc_trim(0);
  const double rss_mb = StatusMb("VmRSS:");
  const Streams streams = MakeStreams(cfg, stack);

  Window w = RunWindow(cfg, stack, streams, cfg.seconds);
  const double peak_mb = StatusMb("VmHWM:");  // before the checks allocate
  outcome->attempted = w.attempted;
  outcome->failed = w.failed;
  outcome->errors = std::move(w.errors);
  CheckSamples(stack, w.samples, &outcome->errors);

  const size_t n = w.read_ms.size();
  const double p95 = Percentile(w.read_ms, 0.95);
  report->Add("qps", static_cast<double>(n) / w.wall_s, "req/s",
              std::to_string(n) + " reads in " + Report::Num(w.wall_s) + " s");
  report->Add("p50_ms", Percentile(w.read_ms, 0.50), "ms", SampleNote(n));
  report->Add("p95_ms", p95, "ms", BeyondNote(n, 95));
  report->Extra("p99_ms", Percentile(w.read_ms, 0.99), "ms", BeyondNote(n, 99));
  report->Add("setup_s", Percentile(setup_s, 0.5), "s",
              "median of " + std::to_string(kSetupRepeats) + " set-ups");
  report->Add("rss_mb", rss_mb, "MB", "VmRSS once set up");
  report->Add("peak_rss_mb", peak_mb, "MB",
              "VmHWM over the window, load generator included");
  report->Extra("error_rate",
                w.attempted ? static_cast<double>(w.failed) / w.attempted : 0.0,
                "ratio", "base " + std::to_string(w.attempted));
  report->Extra("checked_responses", static_cast<double>(w.samples.size()), "count");
  // Which queries make up the tail: each one's share of the samples
  // beyond p95.
  const size_t beyond = static_cast<size_t>(
      std::count_if(w.read_ms.begin(), w.read_ms.end(), [&](double v) { return v > p95; }));
  for (const auto& [id, ms] : w.by_query_ms) {
    report->Extra("query." + id + ".p50_ms", Percentile(ms, 0.5), "ms",
                  SampleNote(ms.size()));
    const auto mine = std::count_if(ms.begin(), ms.end(), [&](double v) { return v > p95; });
    report->Extra("query." + id + ".share_beyond_p95",
                  beyond ? static_cast<double>(mine) / static_cast<double>(beyond) : 0.0,
                  "ratio", "base " + std::to_string(beyond));
  }
  if (rw) {
    report->Extra("commit_p50_ms", Percentile(w.commit_ms, 0.50), "ms",
                  SampleNote(w.commit_ms.size()) + ", from due time");
    report->Extra("commit_p90_ms", Percentile(w.commit_ms, 0.90), "ms",
                  SampleNote(w.commit_ms.size()));
    report->Extra("writer_late_ms", w.writer_late_ms, "ms", "worst send delay");
    Recovery rec = Recover(cfg, stack, w.commit_ms.size(), &outcome->errors);
    report->Extra("recovery_s", rec.seconds, "s",
                  std::to_string(rec.records) + " records replayed");
  }
}

struct Counters {
  double rc_hits = 0, rc_misses = 0, pc_hits = 0, pc_misses = 0;
  double submitted = 0, deduped = 0, rejected = 0;
  double busy_us = 0, morsel_items = 0;

  static Counters Read(const Stack& stack) {
    Counters c;
    for (const Dataset& set : stack.sets) {
      if (!set.service) continue;
      ResultCache::Stats rc = set.service->ResultCacheStats();
      PlanCache::Stats pc = set.service->CacheStats();
      ServiceStatsSnapshot st = set.service->Stats();
      c.rc_hits += rc.hits, c.rc_misses += rc.misses;
      c.pc_hits += pc.hits, c.pc_misses += pc.misses;
      c.submitted += st.submitted, c.deduped += st.deduped;
      c.rejected += st.rejected;
    }
    MetricRegistry& reg = MetricRegistry::Global();
    c.busy_us = reg.GetCounter("sparqluo_executor_busy_microseconds_total")->value();
    c.morsel_items = reg.GetCounter("sparqluo_executor_morsel_items_total")->value();
    return c;
  }
  Counters operator-(const Counters& o) const {
    return {rc_hits - o.rc_hits,     rc_misses - o.rc_misses,
            pc_hits - o.pc_hits,     pc_misses - o.pc_misses,
            submitted - o.submitted, deduped - o.deduped,
            rejected - o.rejected,   busy_us - o.busy_us,
            morsel_items - o.morsel_items};
  }
};

void WriteChromeTrace(const std::string& path, const Phase& b, const Phase& c) {
  Clock::time_point base = Clock::time_point::max();
  for (const Phase* p : {&b, &c})
    for (const auto& ctx : p->contexts) base = std::min(base, ctx->epoch());
  std::string out = "{\"traceEvents\":[\n";
  bool any = false;
  int pid = 0;
  for (const Phase* p : {&b, &c}) {
    for (const auto& ctx : p->contexts) {
      std::string events;
      if (ctx->AppendChromeTraceEvents(pid++, ctx->EpochOffsetUs(base), &events) == 0)
        continue;
      out += (any ? ",\n" : "") + events;
      any = true;
    }
  }
  out += "\n]}\n";
  std::ofstream(path) << out;
}

void RunTraced(const Config& cfg, Report* report, Outcome* outcome) {
  std::vector<std::string>& errors = outcome->errors;
  Stack stack = Setup(cfg, /*serve=*/true, cfg.work_dir + "/wal");
  const Streams streams = MakeStreams(cfg, stack);
  const double half = cfg.seconds / 2;

  // A: the workload's real traffic, untraced, for the window deltas of the
  // service counters and the untraced rate.
  const Counters a0 = Counters::Read(stack);
  Window a = RunWindow(cfg, stack, streams, half);
  const Counters a_delta = Counters::Read(stack) - a0;
  CheckSamples(stack, a.samples, &errors);
  for (std::string& e : a.errors) errors.push_back(std::move(e));
  // B: the same traffic, decomposed and traced. C: probes.
  Phase b = RunTracedWindow(cfg, stack, streams, half);
  const Counters c0 = Counters::Read(stack);
  Phase c = RunProbes(cfg, stack, streams);
  const Counters c_delta = Counters::Read(stack) - c0;
  for (Phase* p : {&b, &c})
    for (std::string& e : p->errors) errors.push_back(std::move(e));
  outcome->attempted = a.attempted + b.attempted + c.attempted;
  outcome->failed = a.failed + b.failed + c.failed;

  const std::vector<UpdateBatch>& batches = b.batches.empty() ? c.batches : b.batches;
  WalProbe wal = ReplayIntoFreshWal(cfg.work_dir + "/wal-replay", batches, &errors);
  Recovery rec = Recover(cfg, stack, a.commit_ms.size() + b.batches.size() + c.batches.size(),
                         &errors);
  const std::string trace_dir = std::string(kOutDir) + "/traces";
  std::filesystem::create_directories(trace_dir);
  const std::string trace_path =
      trace_dir + "/" + cfg.name + "-seed" + std::to_string(cfg.seed) + ".json";
  WriteChromeTrace(trace_path, b, c);

  // A layer's numbers come from the workload's own traffic (B) when it
  // passes through that layer, else from the probe (C).
  auto from = [&](const std::string& span) -> const Phase& {
    return b.counts.step_ms.count(span) ? b : c;
  };
  auto span_ms = [&](const std::string& span) -> const std::vector<double>& {
    static const std::vector<double> kNone;
    const auto& steps = from(span).counts.step_ms;
    auto it = steps.find(span);
    if (it == steps.end()) {
      errors.push_back("no spans named " + span);
      return kNone;
    }
    return it->second;
  };
  auto add_span = [&](const std::string& metric, const std::string& span,
                      std::initializer_list<std::pair<const char*, double>> qs) {
    const auto& v = span_ms(span);
    for (const auto& [suffix, q] : qs)
      report->Add(metric + suffix, Percentile(v, q), "ms",
                  SampleNote(v.size()) + (&from(span) == &b ? "" : ", probe"));
  };
  constexpr std::pair<const char*, double> p50{".p50", 0.50}, p90{".p90", 0.90},
      p99{".p99", 0.99};

  const LayerCounts& serial = from("sparql.serialize").counts;
  double serialize_ms = 0;
  for (double ms : span_ms("sparql.serialize")) serialize_ms += ms;
  add_span("sparql.parse_ms", "sparql.parse", {p50, p99});
  add_span("sparql.serialize_ms", "sparql.serialize", {p50, p99});
  report->Add("sparql.serialize_mb_s",
              serialize_ms > 0 ? serial.serialized_bytes / 1e6 / (serialize_ms / 1e3) : 0.0,
              "MB/s");
  report->Ratio("sparql.bytes_per_row", serial.serialized_bytes, serial.serialized_rows, "B/row");

  const LayerCounts& q = from("engine.execute").counts;
  const double nq = static_cast<double>(q.queries);
  add_span("betree.build_ms", "betree.build", {p50});
  add_span("optimizer.plan_ms", "optimizer.plan", {p50, p99});
  // ExecMetrics keeps whole microseconds, too coarse for a few-µs median.
  double transform_ms = 0;
  for (double ms : q.transform_ms) transform_ms += ms;
  report->Ratio("optimizer.transform_ms.mean", transform_ms, nq, "ms");
  report->Ratio("optimizer.merges_per_query", q.merges, nq, "1/query");
  report->Ratio("optimizer.injects_per_query", q.injects, nq, "1/query");
  report->Ratio("optimizer.decide_calls_per_query", q.decide_calls, nq, "1/query");
  add_span("engine.execute_ms", "engine.execute", {p50, p99});
  report->Ratio("engine.join_space_per_query", q.join_space, nq, "1/query");
  report->Ratio("bgp.rows_materialized_per_query", q.rows_materialized, nq, "1/query");
  report->Ratio("bgp.index_probes_per_query", q.index_probes, nq, "1/query");
  report->Ratio("bgp.candidates_pruned_per_query", q.candidates_pruned, nq, "1/query");
  report->Ratio("bgp.result_rows_per_materialized", q.result_rows, q.rows_materialized);

  double index_bytes = 0, triples = 0;
  for (const Dataset& set : stack.sets) {
    index_bytes += static_cast<double>(set.db->Snapshot()->store->IndexBytes());
    triples += static_cast<double>(set.db->size());
  }
  report->Ratio("rdf.index_bytes_per_triple", index_bytes, triples, "B/triple");
  report->Add("rdf.finalize_s", stack.finalize_s, "s");

  // paper-embedded serves nothing in its own traffic: its service
  // counters come from the probe.
  const Counters& s = cfg.workload == Workload::kPaper ? c_delta : a_delta;
  report->Ratio("server.result_cache_hit_ratio", s.rc_hits, s.rc_hits + s.rc_misses);
  report->Ratio("server.plan_cache_hit_ratio", s.pc_hits, s.pc_hits + s.pc_misses);
  report->Ratio("server.dedup_ratio", s.deduped, s.submitted);
  report->Add("server.rejected", s.rejected, "count");
  add_span("server.submit_ms", "server.submit", {p50, p99});

  const Phase& http = from("http.request");
  add_span("http.request_ms", "http.request", {p50, p99});
  report->Add("http.overhead_ms.p50", Percentile(http.counts.http_overhead_ms, 0.5), "ms",
              SampleNote(http.counts.http_overhead_ms.size()));
  report->Ratio("http.bytes_per_response", http.counts.http_bytes,
                http.counts.http_responses, "B/response");

  add_span("store.stage_ms", "store.stage", {p50});
  add_span("store.commit_ms", "store.commit", {p50, p90});
  report->Add("store.wal_append_ms.p50", Percentile(wal.append_ms, 0.5), "ms",
              SampleNote(wal.append_ms.size()));
  report->Add("store.wal_append_ms.p90", Percentile(wal.append_ms, 0.9), "ms",
              SampleNote(wal.append_ms.size()));
  report->Add("store.wal_bytes_per_commit", wal.bytes_per_commit, "B");
  report->Ratio("store.recover_ms_per_record", rec.seconds * 1e3,
                static_cast<double>(rec.records), "ms/record");

  const double cores = static_cast<double>(std::thread::hardware_concurrency());
  report->Add("pool.busy_fraction", a_delta.busy_us / (a.wall_s * 1e6 * cores),
              "fraction", "over the untraced slice, " + Report::Num(cores) + " cores");
  report->Add("pool.morsel_items", a_delta.morsel_items, "count");

  report->Add("trace.untraced_qps", static_cast<double>(a.read_ms.size()) / a.wall_s,
              "req/s", SampleNote(a.read_ms.size()));
  report->Add("trace.traced_qps", static_cast<double>(b.reads) / b.wall_s, "req/s",
              std::to_string(b.reads) + " decomposed requests");
  report->Ratio("trace.root_coverage", b.fold.root_covered_ms, b.fold.root_ms);
  if (b.fold.root_ms > 0 && b.fold.root_covered_ms < 0.9 * b.fold.root_ms)
    errors.push_back("layer spans cover under 90% of the request spans");
  std::cerr << "# trace written to " << trace_path << "\n";
}

void ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") cfg->name = value();
    else if (arg == "--seed") cfg->seed = std::stoull(value());
    else if (arg == "--seconds") cfg->seconds = std::stod(value());
    else if (arg == "--trace") cfg->trace = value() == "1";
    else if (arg == "--smoke") cfg->smoke = true;
    else throw std::runtime_error("unknown argument " + arg);
  }
  static const std::pair<const char*, Workload> kNames[] = {
      {"lubm-distinct", Workload::kDistinct},
      {"lubm-hot", Workload::kHot},
      {"paper-embedded", Workload::kPaper},
      {"lubm-rw", Workload::kRw}};
  bool known = false;
  for (const auto& [name, w] : kNames)
    if (cfg->name == name) cfg->workload = w, known = true;
  if (!known) throw std::runtime_error("unknown workload '" + cfg->name + "'");
  if (cfg->seconds <= 0) throw std::runtime_error("--seconds must be positive");
  if (cfg->smoke) {
    cfg->lubm_universities = 1;
    cfg->dbpedia_articles = 3000;
  }
  cfg->work_dir = std::string(kOutDir) + "/work/" + cfg->name + "-" +
                  std::to_string(::getpid());
}

int Main(int argc, char** argv) {
  Config cfg;
  ParseArgs(argc, argv, &cfg);
  std::filesystem::remove_all(cfg.work_dir);
  std::filesystem::create_directories(cfg.work_dir);
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{cfg.work_dir};

  Report report;
  Outcome outcome;
  if (cfg.trace)
    RunTraced(cfg, &report, &outcome);
  else
    RunUntraced(cfg, &report, &outcome);
  for (const std::string& e : outcome.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  const bool correct = outcome.errors.empty();
  report.Print(cfg, correct, outcome.attempted, outcome.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sqbench

int main(int argc, char** argv) {
  try {
    return sqbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "sparqluo_bench: " << e.what() << "\n";
    return 2;
  }
}
