// sparqluo command-line shell.
//
//   sparqluo_cli (--data FILE.nt | --lubm N | --dbpedia N | --snapshot FILE)
//                [options] [QUERY | UPDATE]
//
// kFlags below is the one list of options: it drives parsing and the usage
// text, which any unknown option or malformed value prints (exit 2).
//
// Without a query argument, reads blocks from stdin (one per blank-line-
// separated block; end with EOF). A block whose first operation is INSERT
// DATA / DELETE DATA is applied as a committed update (docs/updates.md);
// anything else runs as a query. With --concurrency N, blocks are served
// through a QueryService: queries are submitted concurrently, updates act
// as barriers (pending queries drain, the update commits, serving
// resumes), and aggregate service stats (QPS, p50/p99, plan- and
// result-cache hit rates, commits) are printed instead of result rows.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "betree/builder.h"
#include "betree/serializer.h"
#include "engine/database.h"
#include "engine/result_writer.h"
#include "engine/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/transformer.h"
#include "optimizer/well_designed.h"
#include "server/query_service.h"
#include "server/sparql_endpoint.h"
#include "store/wal.h"
#include "util/timer.h"
#include "workload/dbpedia_generator.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace {

using namespace sparqluo;

struct CliOptions {
  std::string data_file;
  std::string snapshot_in;
  std::string snapshot_out;
  size_t lubm = 0;
  size_t dbpedia = 0;
  EngineKind engine = EngineKind::kWco;
  ExecOptions exec = ExecOptions::Full();
  ResultFormat format = ResultFormat::kTsv;
  bool format_set = false;  ///< --format given: overrides CONSTRUCT's NT default.
  bool explain = false;
  bool explain_analyze = false;
  std::string trace_out;
  std::string metrics_out;
  bool paper_queries = false;
  double slow_query_ms = 0.0;
  size_t slow_query_sample = 1;
  bool stats_only = false;
  size_t concurrency = 0;  ///< > 0 switches to batch serving.
  size_t parallelism = 1;  ///< Intra-query workers; 0 = hardware threads.
  size_t repeat = 1;
  long deadline_ms = 0;
  bool plan_cache = true;
  size_t result_cache_mb = 64;
  std::string query;
  std::string query_file;
  std::string update_file;
  std::string wal_dir;
  std::string fsync = "always";  ///< As given; parsed into `wal`.
  Wal::Options wal;
  long serve_port = -1;  ///< >= 0 switches to HTTP serving (0 = ephemeral).
  std::string bind_address = "127.0.0.1";
};

/// The one parser for numeric flag values: the whole text must be a
/// non-negative decimal that fits T — no sign, no trailing junk, no
/// "inf" or "nan".
template <typename T>
bool ParseNumber(const char* text, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(*text)) && *text != '.')
    return false;
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

/// Stores the value paired with `text`; false when no name matches.
template <typename T>
bool Choose(const char* text,
            std::initializer_list<std::pair<const char*, T>> choices,
            T* out) {
  for (const auto& [name, value] : choices) {
    if (std::strcmp(text, name) == 0) {
      *out = value;
      return true;
    }
  }
  return false;
}

template <std::string CliOptions::*field>
bool SetText(CliOptions* opts, const char* value) {
  opts->*field = value;
  return true;
}

template <auto field>
bool SetNumber(CliOptions* opts, const char* value) {
  return ParseNumber(value, &(opts->*field));
}

template <bool CliOptions::*field, bool on = true>
bool SetSwitch(CliOptions* opts, const char*) {
  opts->*field = on;
  return true;
}

/// One command-line option: the table below drives both parsing and the
/// usage text.
struct Flag {
  const char* name;
  const char* metavar;  ///< Null for a switch, which takes no value.
  const char* help;
  /// Stores the value (null for a switch); false rejects it.
  bool (*set)(CliOptions* opts, const char* value);
};

constexpr Flag kFlags[] = {
    {"--data", "FILE.nt", "load N-Triples (Turtle when FILE ends in .ttl)",
     SetText<&CliOptions::data_file>},
    {"--lubm", "N", "generate LUBM with N universities",
     SetNumber<&CliOptions::lubm>},
    {"--dbpedia", "N", "generate a DBpedia-like graph of N articles",
     SetNumber<&CliOptions::dbpedia>},
    {"--snapshot", "FILE", "load a binary snapshot (SPQLUO1 or SPQLUO2)",
     SetText<&CliOptions::snapshot_in>},
    {"--save-snapshot", "FILE", "save the loaded data as an SPQLUO2 snapshot",
     SetText<&CliOptions::snapshot_out>},
    {"--engine", "wco|hashjoin", "BGP engine (default wco)",
     [](CliOptions* o, const char* v) {
       return Choose(v, {{"wco", EngineKind::kWco},
                         {"hashjoin", EngineKind::kHashJoin}},
                     &o->engine);
     }},
    {"--mode", "base|tt|cp|full", "optimization level (default full)",
     [](CliOptions* o, const char* v) {
       // Only the mode switches: --max-rows may come before or after.
       ExecOptions mode;
       if (!Choose(v, {{"base", ExecOptions::Base()},
                       {"tt", ExecOptions::TT()},
                       {"cp", ExecOptions::CP()},
                       {"full", ExecOptions::Full()}},
                   &mode))
         return false;
       o->exec.tree_transform = mode.tree_transform;
       o->exec.candidate_pruning = mode.candidate_pruning;
       return true;
     }},
    {"--format", "tsv|csv|json|nt",
     "output format (default tsv; nt for CONSTRUCT)",
     [](CliOptions* o, const char* v) {
       o->format_set = true;
       return Choose(v, {{"tsv", ResultFormat::kTsv},
                         {"csv", ResultFormat::kCsv},
                         {"json", ResultFormat::kJson},
                         {"nt", ResultFormat::kNTriples}},
                     &o->format);
     }},
    {"--explain", nullptr, "print the BE-tree before/after transformation",
     SetSwitch<&CliOptions::explain>},
    {"--explain-analyze", nullptr, "trace each query and print its span tree",
     SetSwitch<&CliOptions::explain_analyze>},
    {"--trace-out", "FILE", "write a Chrome-trace JSON of every query",
     SetText<&CliOptions::trace_out>},
    {"--metrics-out", "FILE", "write the metrics in Prometheus text on exit",
     SetText<&CliOptions::metrics_out>},
    {"--paper-queries", nullptr,
     "append the paper's queries (DBpedia's with --dbpedia)",
     SetSwitch<&CliOptions::paper_queries>},
    {"--stats", nullptr, "print dataset statistics and exit",
     SetSwitch<&CliOptions::stats_only>},
    {"--max-rows", "N", "abort when an intermediate exceeds N rows",
     [](CliOptions* o, const char* v) {
       return ParseNumber(v, &o->exec.max_intermediate_rows);
     }},
    {"--parallelism", "N",
     "intra-query workers per BGP (default 1; 0 = all cores)",
     SetNumber<&CliOptions::parallelism>},
    {"--concurrency", "N", "serve the batch through a QueryService, N workers",
     SetNumber<&CliOptions::concurrency>},
    {"--repeat", "K", "run each query K times", SetNumber<&CliOptions::repeat>},
    {"--deadline-ms", "N", "per-query deadline in milliseconds",
     SetNumber<&CliOptions::deadline_ms>},
    {"--slow-query-ms", "N", "log queries at/over N ms at WARN (serving)",
     SetNumber<&CliOptions::slow_query_ms>},
    {"--slow-query-sample", "K", "log every Kth slow query (default 1 = all)",
     SetNumber<&CliOptions::slow_query_sample>},
    {"--no-plan-cache", nullptr, "disable the shared plan cache (serving)",
     SetSwitch<&CliOptions::plan_cache, false>},
    {"--result-cache-mb", "N",
     "result cache MiB (default 64; 0 = off, no dedup)",
     SetNumber<&CliOptions::result_cache_mb>},
    {"--query-file", "FILE", "run the query or update in FILE",
     SetText<&CliOptions::query_file>},
    {"--update-file", "FILE", "commit each update block in FILE after loading",
     SetText<&CliOptions::update_file>},
    {"--wal-dir", "DIR", "log commits durably in DIR; replay it on startup",
     SetText<&CliOptions::wal_dir>},
    {"--fsync", "always|off|N",
     "WAL fsync: each commit (default), off, or every N ms",
     [](CliOptions* o, const char* v) {
       o->fsync = v;
       Result<FsyncPolicy> policy = ParseFsyncPolicy(v, &o->wal.interval_ms);
       if (policy.ok()) o->wal.fsync = *policy;
       return policy.ok();
     }},
    {"--serve", "PORT", "serve SPARQL over HTTP on PORT (0 = ephemeral)",
     [](CliOptions* o, const char* v) {
       uint16_t port;
       if (!ParseNumber(v, &port)) return false;
       o->serve_port = port;
       return true;
     }},
    {"--bind", "ADDR", "listen address for --serve (default 127.0.0.1)",
     SetText<&CliOptions::bind_address>},
};

/// Splits text into blank-line-separated blocks.
std::vector<std::string> SplitBlocks(std::istream& in) {
  std::vector<std::string> blocks;
  std::string block, line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      if (!block.empty()) blocks.push_back(block);
      block.clear();
      continue;
    }
    block += line + "\n";
  }
  if (!block.empty()) blocks.push_back(block);
  return blocks;
}

/// True when the block's first operation keyword (after any PREFIX
/// prologue) is INSERT or DELETE — i.e. it should be routed to the update
/// path rather than the query path.
bool LooksLikeUpdate(const std::string& text) {
  std::string upper;
  upper.reserve(text.size());
  for (char c : text)
    upper.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  auto first_word_at = [&](const char* word) {
    size_t pos = upper.find(word);
    // Require a standalone word (start/whitespace-delimited) so IRIs or
    // literals containing the letters don't trigger.
    while (pos != std::string::npos) {
      bool start_ok = pos == 0 || std::isspace(static_cast<unsigned char>(
                                      upper[pos - 1])) != 0;
      size_t end = pos + std::strlen(word);
      bool end_ok = end >= upper.size() ||
                    std::isspace(static_cast<unsigned char>(upper[end])) != 0;
      if (start_ok && end_ok) return pos;
      pos = upper.find(word, pos + 1);
    }
    return std::string::npos;
  };
  size_t update_pos = std::min(first_word_at("INSERT"), first_word_at("DELETE"));
  size_t query_pos = std::min({first_word_at("SELECT"), first_word_at("ASK"),
                               first_word_at("CONSTRUCT")});
  return update_pos != std::string::npos && update_pos < query_pos;
}

/// Collects the trace contexts of executed queries for --trace-out.
struct TraceSink {
  bool collect = false;
  std::vector<std::shared_ptr<TraceContext>> traces;

  void Add(std::shared_ptr<TraceContext> t) {
    if (collect && t != nullptr) traces.push_back(std::move(t));
  }
};

/// Writes one Chrome-trace-event JSON file: each query is a pid lane, all
/// lanes share the earliest context's epoch as the common timeline origin.
int WriteTraceFile(const std::string& path,
                   const std::vector<std::shared_ptr<TraceContext>>& traces) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  auto base = std::chrono::steady_clock::time_point::max();
  for (const auto& t : traces) base = std::min(base, t->epoch());
  std::string body;
  size_t total = 0;
  for (size_t i = 0; i < traces.size(); ++i) {
    std::string events;
    size_t n = traces[i]->AppendChromeTraceEvents(
        static_cast<int>(i + 1), traces[i]->EpochOffsetUs(base), &events);
    if (n == 0) continue;
    if (total > 0) body += ",\n";
    body += events;
    total += n;
  }
  out << "{\"traceEvents\":[\n" << body << "\n]}\n";
  std::cerr << "# trace: " << total << " spans over " << traces.size()
            << " queries written to " << path << "\n";
  return 0;
}

int WriteMetricsFile(const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  out << MetricRegistry::Global().RenderPrometheus();
  std::cerr << "# metrics written to " << path << "\n";
  return 0;
}

/// Applies one update block and prints the commit outcome.
int RunUpdate(Database& db, const std::string& text) {
  auto commit = db.Update(text);
  if (!commit.ok()) {
    std::cerr << "update failed: " << commit.status().ToString() << "\n";
    return 1;
  }
  std::cerr << "# update: +" << commit->inserted << " -" << commit->deleted
            << " triples -> version " << commit->version << " ("
            << commit->store_size << " total) in " << commit->commit_ms
            << " ms\n";
  return 0;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--data FILE.nt | --lubm N | --dbpedia N | --snapshot FILE)"
               " [options] [QUERY | UPDATE]\noptions:\n";
  for (const Flag& flag : kFlags) {
    std::string left = flag.name;
    if (flag.metavar != nullptr) left = left + " " + flag.metavar;
    std::cerr << "  " << std::left << std::setw(26) << left << flag.help
              << "\n";
  }
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return std::strcmp(arg, f.name) == 0; });
    if (flag == std::end(kFlags)) {
      if (arg[0] == '-') {
        std::cerr << "unknown option " << arg << "\n";
        return false;
      }
      opts->query = arg;
      continue;
    }
    const char* value = nullptr;
    if (flag->metavar != nullptr) {
      if (i + 1 == argc) {
        std::cerr << "missing value for " << arg << "\n";
        return false;
      }
      value = argv[++i];
    }
    if (!flag->set(opts, value)) {
      std::cerr << "bad value for " << arg << ": " << value << "\n";
      return false;
    }
  }
  // A count of 0 means "once" and "every slow query".
  opts->repeat = std::max<size_t>(opts->repeat, 1);
  opts->slow_query_sample = std::max<size_t>(opts->slow_query_sample, 1);
  return !opts->data_file.empty() || !opts->snapshot_in.empty() ||
         opts->lubm > 0 || opts->dbpedia > 0;
}

/// Service options shared by batch serving and --serve.
QueryService::Options ServiceOptions(const CliOptions& opts) {
  QueryService::Options sopts;
  sopts.num_threads = opts.concurrency;  // 0 = hardware threads
  sopts.enable_plan_cache = opts.plan_cache;
  sopts.result_cache_bytes = opts.result_cache_mb << 20;
  sopts.intra_query_parallelism = opts.parallelism;
  sopts.slow_query_ms = opts.slow_query_ms;
  sopts.slow_query_sample = opts.slow_query_sample;
  if (opts.deadline_ms > 0)
    sopts.default_deadline = std::chrono::milliseconds(opts.deadline_ms);
  return sopts;
}

/// Batch serving: submits every collected block (x repeat) to a
/// QueryService and reports per-block outcomes plus aggregate stats.
/// Queries are submitted concurrently; update blocks act as barriers —
/// every pending query drains, the update commits as one version, and
/// serving resumes against the new version.
int RunService(Database& db, const CliOptions& opts,
               const std::vector<std::string>& blocks, TraceSink* sink) {
  QueryService::Options sopts = ServiceOptions(opts);
  sopts.trace_queries = sink->collect || opts.explain_analyze;
  // Blocks are submitted up front (between update barriers); size the
  // admission queue to hold them so a big --repeat doesn't trip the
  // overload rejection meant for live traffic.
  sopts.max_queue = std::max<size_t>(sopts.max_queue,
                                     blocks.size() * opts.repeat + 16);
  QueryService service(db, sopts);

  int rc = 0;
  size_t query_count = 0;
  std::vector<std::pair<size_t, std::future<QueryResponse>>> pending;
  auto drain = [&] {
    for (auto& [index, future] : pending) {
      QueryResponse r = future.get();
      std::cerr << "# q" << index << ": ";
      if (r.status.ok()) {
        std::cerr << r.rows.size() << " rows in " << r.total_ms << " ms (v"
                  << r.version << (r.plan_cache_hit ? ", plan cache hit" : "")
                  << ")\n";
      } else {
        std::cerr << r.status.ToString() << "\n";
        rc = 1;
      }
      if (opts.explain_analyze && r.trace != nullptr)
        std::cerr << r.trace->RenderTree();
      sink->Add(std::move(r.trace));
    }
    pending.clear();
  };

  Timer timer;
  for (size_t rep = 0; rep < opts.repeat; ++rep) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (LooksLikeUpdate(blocks[i])) {
        drain();  // updates are barriers: settle all reads first
        UpdateRequest up;
        up.text = blocks[i];
        UpdateResponse r = service.SubmitUpdate(std::move(up)).get();
        if (r.status.ok()) {
          std::cerr << "# u" << i + 1 << ": +" << r.commit.inserted << " -"
                    << r.commit.deleted << " -> version " << r.commit.version
                    << " in " << r.total_ms << " ms\n";
        } else {
          std::cerr << "# u" << i + 1 << ": " << r.status.ToString() << "\n";
          rc = 1;
        }
        continue;
      }
      QueryRequest req;
      req.text = blocks[i];
      req.options = opts.exec;
      ++query_count;
      pending.emplace_back(i + 1, service.Submit(std::move(req)));
    }
  }
  drain();
  double wall_ms = timer.ElapsedMillis();
  ServiceStatsSnapshot stats = service.Stats();
  auto hit_rate = [](const auto& cache) {
    uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / lookups;
  };
  std::cout << "queries\t" << query_count << "\n"
            << "threads\t" << service.num_threads() << "\n"
            << "wall_ms\t" << wall_ms << "\n"
            << "qps\t" << (wall_ms > 0.0 ? 1000.0 * query_count / wall_ms
                                         : 0.0)
            << "\n"
            << "p50_ms\t" << stats.p50_ms << "\n"
            << "p99_ms\t" << stats.p99_ms << "\n"
            << "p999_ms\t" << stats.p999_ms << "\n"
            << "latency_samples\t" << stats.latency_samples << "\n"
            << "slow_queries\t" << stats.slow_queries << "\n"
            << "completed\t" << stats.completed << "\n"
            << "failed\t" << stats.failed << "\n"
            << "aborted_deadline\t" << stats.aborted_deadline << "\n"
            << "aborted_row_limit\t" << stats.aborted_row_limit << "\n"
            << "rejected\t" << stats.rejected << "\n"
            << "plan_cache_hit_rate\t" << hit_rate(service.CacheStats())
            << "\n"
            << "result_cache_hit_rate\t"
            << hit_rate(service.ResultCacheStats()) << "\n"
            << "morsels\t" << stats.morsels << "\n"
            << "updates_committed\t" << stats.updates_committed << "\n"
            << "store_version\t" << stats.store_version << "\n"
            << "triples_inserted\t" << stats.triples_inserted << "\n"
            << "triples_deleted\t" << stats.triples_deleted << "\n";
  return rc;
}

std::atomic<bool> g_shutdown_requested{false};

void RequestShutdown(int) { g_shutdown_requested.store(true); }

/// --serve mode: a SPARQL Protocol endpoint over the loaded database,
/// running until SIGINT/SIGTERM.
int RunServe(Database& db, const CliOptions& opts) {
  QueryService service(db, ServiceOptions(opts));

  SparqlEndpoint::Options eopts;
  eopts.http.bind_address = opts.bind_address;
  eopts.http.port = static_cast<uint16_t>(opts.serve_port);
  SparqlEndpoint endpoint(service, db.dict(), eopts);
  Status status = endpoint.Start();
  if (!status.ok()) {
    std::cerr << "serve failed: " << status.ToString() << "\n";
    return 1;
  }
  std::cerr << "# serving SPARQL on http://" << opts.bind_address << ":"
            << endpoint.port() << "/sparql (POST /update, GET /metrics, "
            << "GET /healthz); " << service.num_threads()
            << " workers; Ctrl-C stops\n";
  std::signal(SIGINT, RequestShutdown);
  std::signal(SIGTERM, RequestShutdown);
  while (!g_shutdown_requested.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::cerr << "# shutting down\n";
  // Endpoint first (closes connections, unblocking any streaming worker),
  // then the service (drains in-flight queries).
  endpoint.Stop();
  service.Shutdown();
  // With all writers drained, make every acknowledged commit durable and
  // release the active segment before exiting.
  if (Wal* wal = db.wal()) {
    if (Status st = wal->Close(); !st.ok())
      std::cerr << "# wal close failed: " << st.ToString() << "\n";
    else
      std::cerr << "# wal flushed and closed\n";
  }
  ServiceStatsSnapshot stats = service.Stats();
  std::cerr << "# served " << stats.completed << " queries ("
            << stats.failed << " failed, " << stats.rejected
            << " rejected), p50 " << stats.p50_ms << " ms, p99 "
            << stats.p99_ms << " ms\n";
  return 0;
}

int RunQuery(Database& db, const CliOptions& opts, const std::string& text,
             ExecutorPool* pool, TraceSink* sink) {
  std::shared_ptr<TraceContext> trace;
  TraceContext::SpanId root = TraceContext::kNoSpan;
  if (opts.explain_analyze || sink->collect) {
    trace = std::make_shared<TraceContext>();
    root = trace->StartSpan("query");
  }
  auto finish_trace = [&](size_t rows, const Status& status) {
    if (trace == nullptr) return;
    trace->AddAttr(root, "rows", std::to_string(rows));
    trace->AddAttr(root, "status", status.ok() ? "ok" : status.ToString());
    trace->EndSpan(root);
    if (opts.explain_analyze) std::cerr << trace->RenderTree();
    sink->Add(std::move(trace));
  };
  Result<Query> parsed = [&] {
    ScopedSpan parse_span(trace.get(), "parse", root);
    return db.Parse(text);
  }();
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.status().ToString() << "\n";
    finish_trace(0, parsed.status());
    return 1;
  }
  if (opts.explain) {
    BeTree original = BuildBeTree(*parsed);
    std::cerr << "--- original BE-tree (Count_BGP=" << original.CountBgp()
              << ", Depth=" << original.Depth() << ", well-designed="
              << (IsWellDesigned(*parsed) ? "yes" : "no") << ") ---\n"
              << DebugString(original, parsed->vars);
    ExecMetrics pm;
    BeTree planned = db.executor().Plan(*parsed, opts.exec, &pm);
    std::cerr << "--- planned BE-tree (merges=" << pm.transform.merges
              << ", injects=" << pm.transform.injects;
    // The postponement pass runs only with candidate pruning on.
    if (opts.exec.candidate_pruning)
      std::cerr << ", optionals_postponed=" << pm.optionals_postponed;
    std::cerr << ") ---\n"
              << DebugString(planned, parsed->vars)
              << "--- planned SPARQL ---\n"
              << SerializeToQuery(planned, parsed->vars) << "\n";
  }
  ExecMetrics metrics;
  Timer timer;
  CancelToken token(opts.deadline_ms > 0
                        ? CancelToken::Clock::now() +
                              std::chrono::milliseconds(opts.deadline_ms)
                        : CancelToken::Clock::time_point::max());
  ExecOptions exec = opts.exec;
  if (opts.deadline_ms > 0) exec.cancel = &token;
  exec.parallel.pool = pool;
  exec.parallel.parallelism = pool != nullptr ? opts.parallelism : 1;
  exec.trace = trace.get();
  exec.trace_parent = root;
  auto result = db.executor().Execute(*parsed, exec, &metrics);
  if (!result.ok()) {
    std::cerr << "query failed: " << result.status().ToString() << "\n";
    finish_trace(0, result.status());
    return 1;
  }
  finish_trace(result->size(), Status::OK());
  Timer write_timer;
  if (parsed->form == QueryForm::kAsk) {
    std::cout << (result->empty() ? "false" : "true") << "\n";
  } else {
    // CONSTRUCT results are triples; render them as N-Triples unless the
    // user asked for a bindings format explicitly.
    if (parsed->form == QueryForm::kConstruct) {
      WriteConstructResults(
          *result, db.dict(),
          opts.format_set ? opts.format : ResultFormat::kNTriples, std::cout);
    } else {
      WriteResults(*result, parsed->vars, db.dict(), opts.format, std::cout);
    }
  }
  std::cout.flush();
  const double write_ms = write_timer.ElapsedMillis();
  std::cerr << "# " << result->size() << " rows in " << timer.ElapsedMillis()
            << " ms (exec " << metrics.exec_ms << " ms, write " << write_ms
            << " ms, plan "
            << metrics.transform_ms << " ms, join space "
            << metrics.join_space << ", morsels " << metrics.bgp.morsels
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage(argv[0]);

  Database db;
  Timer load_timer;
  if (!opts.data_file.empty()) {
    bool turtle = opts.data_file.size() > 4 &&
                  opts.data_file.rfind(".ttl") == opts.data_file.size() - 4;
    Status st = turtle ? db.LoadTurtleFile(opts.data_file)
                       : db.LoadNTriplesFile(opts.data_file);
    if (!st.ok()) {
      std::cerr << "load failed: " << st.ToString() << "\n";
      return 1;
    }
  } else if (!opts.snapshot_in.empty()) {
    SnapshotLoadInfo load_info;
    Status st = LoadSnapshot(opts.snapshot_in, &db, {}, &load_info);
    if (!st.ok()) {
      std::cerr << "snapshot load failed: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "# snapshot format v"
              << (load_info.format == SnapshotFormat::kV2 ? 2 : 1) << " ("
              << (load_info.mapped ? "mmap" : "buffered") << ", "
              << load_info.file_bytes << " bytes)\n";
  } else if (opts.lubm > 0) {
    LubmConfig cfg;
    cfg.universities = opts.lubm;
    GenerateLubm(cfg, &db);
  } else {
    DbpediaConfig cfg;
    cfg.articles = opts.dbpedia;
    GenerateDbpedia(cfg, &db);
  }
  // Intra-query pool for direct execution: N - 1 workers plus the calling
  // thread (0 = all hardware threads). Created before Finalize so index
  // construction — and each later commit's permutation merges — fan the
  // three CSR builds out over the same pool.
  std::unique_ptr<ExecutorPool> pool;
  if (opts.parallelism != 1)
    pool = std::make_unique<ExecutorPool>(
        opts.parallelism == 0 ? 0 : opts.parallelism - 1);

  db.Finalize(opts.engine, pool.get());
  std::cerr << "# " << db.size() << " triples ready in "
            << load_timer.ElapsedMillis() << " ms (engine "
            << db.engine().name() << ", mode " << opts.exec.Name() << ")\n";

  // Durable commits: attach the write-ahead log and replay whatever it
  // holds past the loaded snapshot before anything can observe the store.
  if (!opts.wal_dir.empty()) {
    Result<WalRecoveryInfo> recovered = db.OpenWal(opts.wal_dir, opts.wal);
    if (!recovered.ok()) {
      std::cerr << "wal recovery failed: " << recovered.status().ToString()
                << "\n";
      return 1;
    }
    std::cerr << "# wal: " << opts.wal_dir << " (fsync " << opts.fsync
              << "), checkpoint v" << recovered->checkpoint_version
              << ", replayed " << recovered->records_replayed
              << " record(s) from " << recovered->segments_scanned
              << " segment(s)";
    if (recovered->torn_tail_truncated)
      std::cerr << ", truncated torn tail (" << recovered->truncated_bytes
                << " bytes)";
    std::cerr << "; store at v" << db.version() << " with " << db.size()
              << " triples\n";
  }

  // Apply update batches before snapshotting or serving queries: each
  // blank-line-separated block in the file commits as one version.
  if (!opts.update_file.empty()) {
    std::ifstream in(opts.update_file);
    if (!in.is_open()) {
      std::cerr << "cannot open " << opts.update_file << "\n";
      return 1;
    }
    for (const std::string& block : SplitBlocks(in)) {
      if (int rc = RunUpdate(db, block); rc != 0) return rc;
    }
  }

  // Saved after --update-file so the snapshot captures the committed
  // state (SaveSnapshot reads the current version).
  if (!opts.snapshot_out.empty()) {
    Status st = SaveSnapshot(db, opts.snapshot_out);
    if (!st.ok()) {
      std::cerr << "snapshot save failed: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "# snapshot written to " << opts.snapshot_out
              << " (format v2)\n";
  }

  if (opts.serve_port >= 0) {
    int rc = RunServe(db, opts);
    if (!opts.metrics_out.empty()) rc |= WriteMetricsFile(opts.metrics_out);
    return rc;
  }

  if (opts.stats_only) {
    const Statistics& st = db.stats();
    std::cout << "triples\t" << st.num_triples() << "\nentities\t"
              << st.num_entities() << "\npredicates\t" << st.num_predicates()
              << "\nliterals\t" << st.num_literals() << "\n";
    return 0;
  }

  // Collect the block batch: positional arg, query file, or stdin blocks
  // (skipped when --paper-queries supplies the batch). Blocks may mix
  // queries and INSERT DATA / DELETE DATA updates.
  std::vector<std::string> blocks;
  if (!opts.query_file.empty()) {
    std::ifstream in(opts.query_file);
    if (!in.is_open()) {
      std::cerr << "cannot open " << opts.query_file << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    blocks.push_back(buf.str());
  } else if (!opts.query.empty()) {
    blocks.push_back(opts.query);
  } else if (!opts.paper_queries) {
    blocks = SplitBlocks(std::cin);
  }
  if (opts.paper_queries) {
    // The DBpedia queries exactly when the loader above generated DBpedia:
    // --dbpedia given, and no source it prefers to that.
    const bool dbpedia = opts.dbpedia > 0 && opts.data_file.empty() &&
                         opts.snapshot_in.empty() && opts.lubm == 0;
    for (const PaperQuery& q :
         dbpedia ? DbpediaPaperQueries() : LubmPaperQueries())
      blocks.push_back(q.sparql);
  }
  if (blocks.empty()) return 0;

  TraceSink sink;
  sink.collect = !opts.trace_out.empty();

  int rc = 0;
  if (opts.concurrency > 0) {
    rc = RunService(db, opts, blocks, &sink);
  } else {
    for (size_t rep = 0; rep < opts.repeat; ++rep) {
      for (const std::string& block : blocks) {
        rc |= LooksLikeUpdate(block)
                  ? RunUpdate(db, block)
                  : RunQuery(db, opts, block, pool.get(), &sink);
      }
    }
  }
  if (!opts.trace_out.empty()) rc |= WriteTraceFile(opts.trace_out, sink.traces);
  if (!opts.metrics_out.empty()) rc |= WriteMetricsFile(opts.metrics_out);
  return rc;
}
