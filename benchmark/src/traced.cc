#include "traced.h"

#include <filesystem>
#include <functional>
#include <thread>

#include "betree/builder.h"
#include "store/wal.h"
#include "http_client.h"

namespace sqbench {

using namespace sparqluo;

namespace {

constexpr int kHttpTimeoutMs = 60000;
constexpr size_t kMaxSpans = size_t{1} << 22;
/// Requests (and write batches) per probe chain.
constexpr size_t kProbeRequests = 16;

/// A span around one public call of a request's chain, also timed into
/// `counts->step_ms` at full clock resolution.
class Step {
 public:
  Step(TraceContext* ctx, const char* name, TraceContext::SpanId root,
       LayerCounts* counts)
      : ctx_(ctx), name_(name), counts_(counts), start_(Clock::now()),
        id_(ctx->StartSpanAt(name, root, start_)) {}
  ~Step() {
    counts_->step_ms[name_].push_back(Millis(Clock::now() - start_));
    ctx_->EndSpan(id_);
  }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

  /// Time since the step began.
  double ms() const { return Millis(Clock::now() - start_); }

 private:
  TraceContext* ctx_;
  const char* name_;
  LayerCounts* counts_;
  Clock::time_point start_;
  TraceContext::SpanId id_;
};

/// parse -> plan -> execute -> serialize on a pinned version, the path a
/// plan-cache and result-cache miss takes in QueryService. Executor::Plan
/// builds the BE-tree itself, so optimizer.plan includes the build; for
/// betree.build_ms the build is timed on its own after the request, outside
/// its root span. Returns the result's row count, or SIZE_MAX on failure.
size_t MissChain(const Dataset& set, const Request& req, TraceContext* ctx,
                 LayerCounts* counts, std::vector<std::string>* errors) {
  const Database& db = *set.db;
  const auto snap = db.Snapshot();
  const ExecOptions opts = ExecOptions::Full();
  const TraceContext::SpanId root = ctx->StartSpan("request");
  Result<Query> query = [&] {
    Step step(ctx, "sparql.parse", root, counts);
    return db.Parse(req.text);
  }();
  ExecMetrics m;
  Result<BindingSet> rows = Status::Internal("not executed");
  if (query.ok()) {
    Status valid = Status::OK();
    BeTree plan = [&] {
      Step step(ctx, "optimizer.plan", root, counts);
      BeTree tree = snap->executor->Plan(*query, opts, &m);
      valid = tree.Validate();
      return tree;
    }();
    if (valid.ok()) {
      Step step(ctx, "engine.execute", root, counts);
      rows = snap->executor->ExecutePlanned(*query, plan, opts, &m);
    } else {
      rows = valid;
    }
  } else {
    rows = query.status();
  }
  size_t bytes = 0;
  if (rows.ok()) {
    Step step(ctx, "sparql.serialize", root, counts);
    bytes = RenderJson(*rows, query->vars, *snap->dict, /*hashing=*/false).bytes;
  }
  ctx->EndSpan(root);
  if (!rows.ok()) {
    errors->push_back(req.id + ": " + rows.status().ToString());
    return SIZE_MAX;
  }
  {
    const auto start = Clock::now();
    const BeTree tree = BuildBeTree(*query);  // freed after the reading, as in Plan
    counts->step_ms["betree.build"].push_back(Millis(Clock::now() - start));
  }
  ++counts->queries;
  counts->merges += static_cast<double>(m.transform.merges);
  counts->injects += static_cast<double>(m.transform.injects);
  counts->decide_calls += m.transform.decide_calls;
  counts->join_space += m.join_space;
  counts->rows_materialized += static_cast<double>(m.bgp.rows_materialized);
  counts->index_probes += static_cast<double>(m.bgp.index_probes);
  counts->candidates_pruned += static_cast<double>(m.bgp.candidates_pruned);
  counts->result_rows += static_cast<double>(rows->size());
  counts->transform_ms.push_back(m.transform_ms);
  counts->serialized_bytes += static_cast<double>(bytes);
  counts->serialized_rows += static_cast<double>(rows->size());
  return rows->size();
}

/// One text three ways: the HTTP round trip, the service call behind it and
/// the serialization inside it. On a result-cache hit the difference is
/// the HTTP layer's own cost. `check` compares the two renderings.
bool HitChain(const Dataset& set, testhttp::TestHttpClient& client,
              const Request& req, bool check, TraceContext* ctx,
              LayerCounts* counts, std::vector<std::string>* errors) {
  const std::string wire = GetRequest(req.text);
  const TraceContext::SpanId root = ctx->StartSpan("request");
  testhttp::Response http;
  double http_ms = 0, submit_ms = 0, serialize_ms = 0;
  {
    Step step(ctx, "http.request", root, counts);
    http = client.Request(wire, kHttpTimeoutMs);
    http_ms = step.ms();
  }
  const int http_status = http.ok ? http.status : 0;
  QueryResponse response;
  {
    Step step(ctx, "server.submit", root, counts);
    response = set.service->Submit(TextRequest(req.text)).get();
    submit_ms = step.ms();
  }
  const bool ok = http_status == 200 && response.status.ok() &&
                  response.plan != nullptr;
  size_t bytes = 0;
  if (ok) {
    Step step(ctx, "sparql.serialize", root, counts);
    bytes = RenderJson(response.rows, response.plan->query.vars,
                       set.db->dict(), /*hashing=*/false).bytes;
    serialize_ms = step.ms();
  }
  ctx->EndSpan(root);
  if (!ok) {
    errors->push_back(req.id + ": HTTP " + std::to_string(http_status) +
                      ", service " + response.status.ToString());
    return false;
  }
  counts->http_overhead_ms.push_back(http_ms - submit_ms - serialize_ms);
  counts->serialized_bytes += static_cast<double>(bytes);
  counts->serialized_rows += static_cast<double>(response.rows.size());
  counts->http_bytes += static_cast<double>(http.body.size());
  counts->http_responses += 1;
  if (check) {
    Digest body;
    body.Add(http.body);
    if (!(body == RenderJson(response.rows, response.plan->query.vars,
                             set.db->dict())))
      errors->push_back("HTTP body differs from the service's rows: " + req.text);
  }
  return true;
}

bool WriteChain(Database& db, const UpdateBatch& batch, TraceContext* ctx,
                LayerCounts* counts, std::vector<std::string>* errors) {
  const TraceContext::SpanId root = ctx->StartSpan("write");
  Status staged = [&] {
    Step step(ctx, "store.stage", root, counts);
    return db.Stage(batch);
  }();
  Result<CommitStats> committed = Status::Internal("not staged");
  if (staged.ok()) {
    Step step(ctx, "store.commit", root, counts);
    committed = db.Commit();
  }
  ctx->EndSpan(root);
  if (!staged.ok() || !committed.ok()) {
    errors->push_back("write: " + (staged.ok() ? committed.status() : staged).ToString());
    return false;
  }
  return true;
}

std::unique_ptr<TraceContext> NewContext() {
  return std::make_unique<TraceContext>(kMaxSpans);
}

/// Folds the contexts and merges the per-client parts into one phase.
void Finish(std::vector<Phase>& parts, Phase* phase) {
  for (Phase& part : parts) {
    for (auto& ctx : part.contexts) phase->contexts.push_back(std::move(ctx));
    phase->counts.Merge(part.counts);
    phase->reads += part.reads;
    phase->attempted += part.attempted;
    phase->failed += part.failed;
    for (auto& b : part.batches) phase->batches.push_back(std::move(b));
    for (auto& e : part.errors) phase->errors.push_back(std::move(e));
  }
  for (const auto& ctx : phase->contexts) {
    phase->fold.Add(*ctx);
    if (ctx->dropped() > 0) phase->errors.push_back("trace spans dropped");
  }
}

void Count(bool ok, Phase* part) {
  ++part->attempted;
  if (ok) {
    ++part->reads;
  } else {
    ++part->failed;
  }
}

}  // namespace

void LayerCounts::Merge(const LayerCounts& o) {
  for (const auto& [name, ms] : o.step_ms)
    step_ms[name].insert(step_ms[name].end(), ms.begin(), ms.end());
  http_overhead_ms.insert(http_overhead_ms.end(), o.http_overhead_ms.begin(),
                          o.http_overhead_ms.end());
  queries += o.queries;
  merges += o.merges;
  injects += o.injects;
  decide_calls += o.decide_calls;
  join_space += o.join_space;
  rows_materialized += o.rows_materialized;
  index_probes += o.index_probes;
  candidates_pruned += o.candidates_pruned;
  result_rows += o.result_rows;
  transform_ms.insert(transform_ms.end(), o.transform_ms.begin(),
                      o.transform_ms.end());
  serialized_bytes += o.serialized_bytes;
  serialized_rows += o.serialized_rows;
  http_bytes += o.http_bytes;
  http_responses += o.http_responses;
}

Phase RunTracedWindow(const Config& cfg, Stack& stack, const Streams& streams,
                      double seconds) {
  const size_t threads = LoadThreads(cfg);
  std::vector<Phase> parts(threads);
  StartGate gate(threads);
  std::vector<std::thread> pool;

  auto miss_reader = [&](Phase* out, Random rng) {
    out->contexts.push_back(NewContext());
    TraceContext* ctx = out->contexts.back().get();
    const RequestSource next = ReaderSource(cfg, streams, rng);
    gate.ArriveAndWait();
    while (Clock::now() < gate.deadline) {
      const Request req = next();
      Count(MissChain(stack.sets[0], req, ctx, &out->counts, &out->errors) !=
                SIZE_MAX,
            out);
    }
  };
  auto hit_reader = [&](Phase* out, Random rng, Random sampler) {
    out->contexts.push_back(NewContext());
    TraceContext* ctx = out->contexts.back().get();
    testhttp::TestHttpClient client(stack.sets[0].endpoint->port());
    const RequestSource next = ReaderSource(cfg, streams, rng);
    gate.ArriveAndWait();
    while (Clock::now() < gate.deadline) {
      const Request req = next();
      bool check = sampler.Uniform(kSampleEvery) == 0;
      Count(HitChain(stack.sets[0], client, req, check, ctx, &out->counts,
                     &out->errors),
            out);
    }
  };
  auto paper_reader = [&](Phase* out, Random rng) {
    out->contexts.push_back(NewContext());
    TraceContext* ctx = out->contexts.back().get();
    std::vector<size_t> order(streams.paper.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    gate.ArriveAndWait();
    for (size_t i = 0; Clock::now() < gate.deadline; ++i) {
      if (i % order.size() == 0) Shuffle(&order, rng);
      const size_t q = order[i % order.size()];
      const Request& req = streams.paper[q];
      size_t rows = MissChain(stack.sets[req.db], req, ctx, &out->counts,
                              &out->errors);
      Count(rows != SIZE_MAX, out);
      if (rows != SIZE_MAX && rows != streams.paper_rows[q])
        out->errors.push_back(req.id + " returned " + std::to_string(rows) +
                              " rows");
    }
  };
  // Calls Stage/Commit directly on the served database, on lubm-rw's
  // open-loop schedule.
  auto writer = [&](Phase* out) {
    out->contexts.push_back(NewContext());
    TraceContext* ctx = out->contexts.back().get();
    WriteBatches batches(cfg.seed, 1);
    gate.ArriveAndWait();
    for (uint64_t k = 0;; ++k) {
      auto due = gate.start + std::chrono::microseconds(static_cast<int64_t>(
                                  1e6 * static_cast<double>(k) / kCommitsPerSecond));
      if (due >= gate.deadline) break;
      std::this_thread::sleep_until(due);
      UpdateBatch batch = batches.Next();
      ++out->attempted;
      if (!WriteChain(*stack.sets[0].db, batch, ctx, &out->counts, &out->errors)) {
        ++out->failed;
        break;
      }
      out->batches.push_back(std::move(batch));
    }
  };

  for (size_t c = 0; c < threads; ++c) {
    Random rng = SeededRandom(cfg.seed, 0x7ace0 + c);
    Phase* out = &parts[c];
    switch (cfg.workload) {
      case Workload::kDistinct:
        pool.emplace_back(miss_reader, out, rng);
        break;
      case Workload::kHot:
        pool.emplace_back(hit_reader, out, rng, SeededRandom(cfg.seed, 0x5a3c + c));
        break;
      case Workload::kPaper:
        pool.emplace_back(paper_reader, out, rng);
        break;
      case Workload::kRw:
        if (c + 1 == threads)
          pool.emplace_back(writer, out);
        else
          pool.emplace_back(miss_reader, out, rng);
        break;
    }
  }
  gate.Open(seconds);
  for (std::thread& t : pool) t.join();
  Phase phase;
  phase.wall_s = Seconds(Clock::now() - gate.start);
  Finish(parts, &phase);
  return phase;
}

Phase RunProbes(const Config& cfg, Stack& stack, const Streams& streams) {
  std::vector<Phase> parts(1);
  Phase& out = parts[0];
  out.contexts.push_back(NewContext());
  TraceContext* ctx = out.contexts.back().get();
  const auto t0 = Clock::now();

  // The workload's own requests, in a seeded order.
  std::vector<Request> requests;
  if (cfg.workload == Workload::kHot) {
    const auto& all = streams.hot->all();
    requests.assign(all.begin(), all.begin() + std::min(kProbeRequests, all.size()));
  } else if (cfg.workload == Workload::kPaper) {
    requests = streams.paper;
  } else {
    DistinctStream stream(streams.templates, streams.anchors,
                          SeededRandom(cfg.seed, 0x9806e));
    for (size_t i = 0; i < kProbeRequests; ++i) requests.push_back(stream.Next());
  }

  if (cfg.workload == Workload::kHot) {
    for (const Request& req : requests)
      Count(MissChain(stack.sets[req.db], req, ctx, &out.counts, &out.errors) !=
                SIZE_MAX,
            &out);
  } else {
    std::vector<std::unique_ptr<testhttp::TestHttpClient>> clients;
    for (const Dataset& set : stack.sets)
      clients.push_back(std::make_unique<testhttp::TestHttpClient>(set.endpoint->port()));
    for (const Request& req : requests) {
      const Dataset& set = stack.sets[req.db];
      // Untimed warm-up, so the chain measures the hit path.
      set.service->Submit(TextRequest(req.text)).get();
      Count(HitChain(set, *clients[req.db], req, true, ctx, &out.counts,
                     &out.errors),
            &out);
    }
  }

  if (cfg.workload != Workload::kRw) {
    WriteBatches batches(cfg.seed, 2);
    for (size_t k = 0; k < kProbeRequests; ++k) {
      UpdateBatch batch = batches.Next();
      ++out.attempted;
      if (!WriteChain(*stack.sets[0].db, batch, ctx, &out.counts, &out.errors)) {
        ++out.failed;
        break;
      }
      out.batches.push_back(std::move(batch));
    }
  }
  Phase phase;
  phase.wall_s = Seconds(Clock::now() - t0);
  Finish(parts, &phase);
  return phase;
}

WalProbe ReplayIntoFreshWal(const std::string& dir,
                            const std::vector<UpdateBatch>& batches,
                            std::vector<std::string>* errors) {
  WalProbe probe;
  Wal::Options opts;
  opts.fsync = FsyncPolicy::kAlways;
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir, opts);
  if (!wal.ok()) {
    errors->push_back("wal open: " + wal.status().ToString());
    return probe;
  }
  for (size_t i = 0; i < batches.size(); ++i) {
    auto t0 = Clock::now();
    Status st = (*wal)->Append(i + 1, batches[i].ops);
    probe.append_ms.push_back(Millis(Clock::now() - t0));
    if (!st.ok()) errors->push_back("wal append: " + st.ToString());
  }
  if (Status st = (*wal)->Close(); !st.ok())
    errors->push_back("wal close: " + st.ToString());
  uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  if (!batches.empty())
    probe.bytes_per_commit =
        static_cast<double>(bytes) / static_cast<double>(batches.size());
  return probe;
}

}  // namespace sqbench
