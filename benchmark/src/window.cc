// The untraced timed window: each workload's own traffic, closed loop over
// keep-alive HTTP connections (or in-process calls for paper-embedded),
// plus the open-loop writer of lubm-rw.
#include <fstream>
#include <functional>
#include <thread>

#include "common.h"
#include "http_client.h"

namespace sqbench {

using namespace sparqluo;

namespace {

constexpr int kHttpTimeoutMs = 60000;

using testhttp::TestHttpClient;

void HttpReader(uint16_t port, const RequestSource& next, Random sampler,
                StartGate* gate, Window* out) {
  auto client = std::make_unique<TestHttpClient>(port);
  gate->ArriveAndWait();
  while (Clock::now() < gate->deadline) {
    const Request req = next();
    const bool sample = sampler.Uniform(kSampleEvery) == 0;
    const std::string wire = GetRequest(req.text);
    auto t0 = Clock::now();
    const testhttp::Response response = client->Request(wire, kHttpTimeoutMs);
    const auto done = Clock::now();
    ++out->attempted;
    if (!response.ok || response.status != 200) {
      ++out->failed;
      out->errors.push_back("HTTP " + std::to_string(response.status) + " for " + req.id);
      if (!response.ok) client = std::make_unique<TestHttpClient>(port);
      continue;
    }
    // Only answers inside the window count; one that straddles its end
    // neither stretches the window nor adds a latency sample.
    if (done > gate->deadline) break;
    out->read_ms.push_back(Millis(done - t0));
    out->by_query_ms[req.id].push_back(out->read_ms.back());
    if (sample) {
      Digest body;
      body.Add(response.body);
      out->samples.push_back({req.db, req.text, true, body});
    }
  }
}

/// lubm-rw writer: batch k is due at start + k / rate and is timed from
/// then, so a stalled commit delays (and charges) the ones behind it.
void HttpWriter(uint16_t port, uint64_t seed, StartGate* gate, Window* out) {
  TestHttpClient client(port);
  WriteBatches batches(seed, 0);
  gate->ArriveAndWait();
  for (uint64_t k = 0;; ++k) {
    auto due = gate->start + std::chrono::microseconds(static_cast<int64_t>(
                                 1e6 * static_cast<double>(k) / kCommitsPerSecond));
    if (due >= gate->deadline) break;
    std::this_thread::sleep_until(due);
    const std::string body = WriteBatches::ToSparql(batches.Next());
    const std::string wire =
        "POST /update HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/sparql-update\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    out->writer_late_ms = std::max(out->writer_late_ms, Millis(Clock::now() - due));
    const testhttp::Response reply = client.Request(wire, kHttpTimeoutMs);
    ++out->attempted;
    if (!reply.ok || reply.status != 200) {
      // A lost acknowledgement leaves the commit count unknown: the
      // recovery check then reports the mismatch.
      ++out->failed;
      out->errors.push_back("update HTTP " + std::to_string(reply.status));
      break;
    }
    out->commit_ms.push_back(Millis(Clock::now() - due));
  }
}

/// paper-embedded: one caller, sequential passes over the 24 queries in a
/// seeded order, each answer's row count checked against the table.
void EmbeddedCaller(const Stack& stack, const Streams& streams, Random rng,
                    StartGate* gate, Window* out) {
  std::vector<size_t> order(streams.paper.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  gate->ArriveAndWait();
  for (size_t i = 0; Clock::now() < gate->deadline; ++i) {
    if (i % order.size() == 0) Shuffle(&order, rng);  // a new order each pass
    const size_t q = order[i % order.size()];
    const Request& req = streams.paper[q];
    auto t0 = Clock::now();
    Result<BindingSet> rows = stack.sets[req.db].db->Query(req.text);
    const auto done = Clock::now();
    ++out->attempted;
    if (!rows.ok()) {
      ++out->failed;
      out->errors.push_back(req.id + ": " + rows.status().ToString());
      continue;
    }
    if (rows->size() != streams.paper_rows[q])
      out->errors.push_back(req.id + " returned " + std::to_string(rows->size()) +
                            " rows, expected " +
                            std::to_string(streams.paper_rows[q]));
    if (done > gate->deadline) break;
    out->read_ms.push_back(Millis(done - t0));
    out->by_query_ms[req.id].push_back(out->read_ms.back());
    if (rng.Uniform(kSampleEvery) == 0) out->samples.push_back({req.db, req.text, false, {}});
  }
}

void Merge(Window&& from, Window* into) {
  into->read_ms.insert(into->read_ms.end(), from.read_ms.begin(), from.read_ms.end());
  for (auto& [id, ms] : from.by_query_ms)
    into->by_query_ms[id].insert(into->by_query_ms[id].end(), ms.begin(), ms.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (Sample& s : from.samples) into->samples.push_back(std::move(s));
  into->commit_ms.insert(into->commit_ms.end(), from.commit_ms.begin(),
                         from.commit_ms.end());
  into->writer_late_ms = std::max(into->writer_late_ms, from.writer_late_ms);
  for (std::string& e : from.errors) into->errors.push_back(std::move(e));
}

}  // namespace

RequestSource ReaderSource(const Config& cfg, const Streams& streams,
                           Random rng) {
  if (cfg.workload == Workload::kHot)
    return [&streams, rng]() mutable { return streams.hot->Next(rng); };
  auto stream = std::make_shared<DistinctStream>(streams.templates,
                                                 streams.anchors, rng);
  return [stream] { return stream->Next(); };
}

Window RunWindow(const Config& cfg, Stack& stack, const Streams& streams,
                 double seconds) {
  Window window;
  if (cfg.workload == Workload::kHot) {
    // Untimed pass over the hot pool: the timed window then sees the
    // steady state of repeat lookups.
    std::vector<QueryRequest> warm;
    for (const Request& r : streams.hot->all()) warm.push_back(TextRequest(r.text));
    for (const QueryResponse& r : stack.sets[0].service->RunBatch(std::move(warm)))
      if (!r.status.ok()) window.errors.push_back("warm-up: " + r.status.ToString());
  }
  // Restart the resident-memory peak (VmHWM) here, so that read after the
  // window it covers the timed traffic alone.
  std::ofstream("/proc/self/clear_refs") << "5";

  const size_t threads = LoadThreads(cfg);
  std::vector<Window> parts(threads);
  StartGate gate(threads);
  std::vector<std::thread> pool;
  for (size_t c = 0; c < threads; ++c) {
    Random rng = SeededRandom(cfg.seed, c);
    Random sampler = SeededRandom(cfg.seed, 0x5a3 + c);
    Window* out = &parts[c];
    switch (cfg.workload) {
      case Workload::kDistinct:
      case Workload::kHot:
        pool.emplace_back(HttpReader, stack.sets[0].endpoint->port(),
                          ReaderSource(cfg, streams, rng), sampler, &gate, out);
        break;
      case Workload::kRw:
        if (c + 1 == threads)
          pool.emplace_back(HttpWriter, stack.sets[0].endpoint->port(), cfg.seed,
                            &gate, out);
        else
          pool.emplace_back(HttpReader, stack.sets[0].endpoint->port(),
                            ReaderSource(cfg, streams, rng), sampler, &gate, out);
        break;
      case Workload::kPaper:
        pool.emplace_back(EmbeddedCaller, std::cref(stack), std::cref(streams),
                          rng, &gate, out);
        break;
    }
  }
  gate.Open(seconds);
  for (std::thread& t : pool) t.join();
  window.wall_s = Seconds(gate.deadline - gate.start);
  for (Window& part : parts) Merge(std::move(part), &window);
  return window;
}

}  // namespace sqbench
