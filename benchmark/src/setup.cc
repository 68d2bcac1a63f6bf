// Dataset set-up, restart/recovery and the in-process correctness gate.
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bgp/engine.h"
#include "common.h"
#include "http_client.h"
#include "sparql/result_writer.h"
#include "workload/dbpedia_generator.h"
#include "workload/lubm_generator.h"

namespace sqbench {

using namespace sparqluo;

namespace {

// Triple counts of the fixed full-scale datasets; a different count means
// a generator changed and every recorded number is void.
constexpr size_t kLubmTriples = 1240517;
constexpr size_t kDbpediaTriples = 528916;

std::unique_ptr<Database> Generate(const Config& cfg, bool lubm) {
  auto db = std::make_unique<Database>();
  if (lubm) {
    LubmConfig c;
    c.universities = cfg.lubm_universities;
    GenerateLubm(c, db.get());
  } else {
    DbpediaConfig c;
    c.articles = cfg.dbpedia_articles;
    GenerateDbpedia(c, db.get());
  }
  return db;
}

Wal::Options AlwaysFsync() {
  Wal::Options o;
  o.fsync = FsyncPolicy::kAlways;
  return o;
}

}  // namespace

Digest RenderJson(const BindingSet& rows, const VarTable& vars,
                  const Dictionary& dict, bool hashing) {
  Digest d{.hashing = hashing};
  StreamingResultWriter writer(WireFormat::kJson, [&d](std::string_view piece) {
    d.Add(piece);
    return true;
  });
  writer.WriteAll(rows, vars, dict);
  return d;
}

std::string GetRequest(const std::string& text) {
  return "GET /sparql?query=" + testhttp::UrlEncode(text) +
         " HTTP/1.1\r\nHost: bench\r\n"
         "Accept: application/sparql-results+json\r\n\r\n";
}

Stack Setup(const Config& cfg, bool serve, const std::string& wal_dir) {
  Stack stack;
  const size_t datasets = cfg.workload == Workload::kPaper ? 2 : 1;
  for (size_t i = 0; i < datasets; ++i) {
    Dataset set;
    set.db = Generate(cfg, i == 0);
    auto t0 = Clock::now();
    set.db->Finalize(EngineKind::kWco);
    stack.finalize_s += Seconds(Clock::now() - t0);
    if (!cfg.smoke && set.db->size() != (i == 0 ? kLubmTriples : kDbpediaTriples))
      throw std::runtime_error("dataset " + std::to_string(i) + " has " +
                               std::to_string(set.db->size()) +
                               " triples, not the fixed count");
    if (i == 0 && !wal_dir.empty()) {
      Result<WalRecoveryInfo> opened = set.db->OpenWal(wal_dir, AlwaysFsync());
      if (!opened.ok())
        throw std::runtime_error("OpenWal: " + opened.status().ToString());
      stack.wal_dir = wal_dir;
    }
    if (serve) {
      set.service = std::make_unique<QueryService>(*set.db, QueryService::Options{});
      set.endpoint = std::make_unique<SparqlEndpoint>(
          *set.service, set.db->dict(), SparqlEndpoint::Options{});
      Status started = set.endpoint->Start();
      if (!started.ok())
        throw std::runtime_error("endpoint: " + started.ToString());
    }
    stack.sets.push_back(std::move(set));
  }
  return stack;
}

Streams MakeStreams(const Config& cfg, const Stack& stack) {
  Streams s;
  s.anchors = CollectAnchors(*stack.sets[0].db);
  s.hot = std::make_unique<HotPool>(s.templates, s.anchors, cfg.seed);
  if (cfg.workload == Workload::kPaper) {
    s.paper = PaperQueries();
    if (!cfg.smoke) {
      s.paper_rows = PaperRowCounts();
    } else {
      // The fixed counts hold at full scale only; at smoke scale the
      // expected counts come from the hash-join engine.
      for (const Request& q : s.paper) {
        auto snap = stack.sets[q.db].db->Snapshot();
        auto engine = MakeEngine(EngineKind::kHashJoin, *snap->store,
                                 *snap->dict, snap->stats);
        Executor hj(*engine, *snap->dict, *snap->store);
        Result<Query> parsed = stack.sets[q.db].db->Parse(q.text);
        Result<BindingSet> rows = hj.Execute(*parsed, ExecOptions::Full());
        if (!rows.ok()) throw std::runtime_error("reference " + q.id);
        s.paper_rows.push_back(rows->size());
      }
    }
  }
  return s;
}

void CheckSamples(const Stack& stack, const std::vector<Sample>& samples,
                  std::vector<std::string>* errors) {
  // Identical texts are re-executed once; distinct texts in parallel.
  std::map<std::pair<size_t, std::string>, std::vector<const Sample*>> by_text;
  for (const Sample& s : samples) by_text[{s.db, s.text}].push_back(&s);
  std::vector<const decltype(by_text)::value_type*> work;
  for (const auto& entry : by_text) work.push_back(&entry);

  struct Reference {
    std::shared_ptr<const DatabaseVersion> snap;
    std::unique_ptr<BgpEngine> engine;
    std::unique_ptr<Executor> executor;
  };
  std::vector<Reference> hash_join(stack.sets.size());
  for (size_t i = 0; i < stack.sets.size(); ++i) {
    Reference& r = hash_join[i];
    r.snap = stack.sets[i].db->Snapshot();
    r.engine = MakeEngine(EngineKind::kHashJoin, *r.snap->store, *r.snap->dict,
                          r.snap->stats);
    r.executor = std::make_unique<Executor>(*r.engine, *r.snap->dict, *r.snap->store);
  }

  std::atomic<size_t> next{0};
  std::mutex mu;
  auto check = [&] {
    for (size_t i; (i = next.fetch_add(1)) < work.size();) {
      const auto& [key, group] = *work[i];
      const Database& db = *stack.sets[key.first].db;
      const std::string& text = key.second;
      std::vector<std::string> found;
      Result<Query> parsed = db.Parse(text);
      Result<BindingSet> rows = db.Query(text);
      Result<BindingSet> reference =
          parsed.ok() ? hash_join[key.first].executor->Execute(*parsed, ExecOptions::Full())
                      : Result<BindingSet>(parsed.status());
      if (!rows.ok() || !reference.ok()) {
        found.push_back("in-process re-execution failed: " + text);
      } else {
        if (!BagEquals(*rows, *reference))
          found.push_back("rows differ from the hash-join engine: " + text);
        Digest rendered = RenderJson(*rows, parsed->vars, db.dict());
        for (const Sample* s : group)
          if (s->has_body && !(s->body == rendered))
            found.push_back("HTTP body differs from the in-process render: " + text);
      }
      std::lock_guard<std::mutex> lock(mu);
      for (std::string& e : found) errors->push_back(std::move(e));
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t)
    threads.emplace_back(check);
  for (std::thread& t : threads) t.join();
}

Recovery Recover(const Config& cfg, Stack& stack, uint64_t acked_commits,
                 std::vector<std::string>* errors) {
  ShutdownServing(stack);
  Database& live = *stack.sets[0].db;
  if (Status closed = live.wal()->Close(); !closed.ok())
    errors->push_back("wal close: " + closed.ToString());
  std::unique_ptr<Database> fresh = Generate(cfg, true);
  fresh->Finalize(EngineKind::kWco);
  Recovery r;
  auto t0 = Clock::now();
  Result<WalRecoveryInfo> info = fresh->OpenWal(stack.wal_dir, AlwaysFsync());
  r.seconds = Seconds(Clock::now() - t0);
  if (!info.ok()) {
    errors->push_back("recovery failed: " + info.status().ToString());
    return r;
  }
  r.records = info->records_replayed;
  if (fresh->version() != acked_commits || fresh->version() != live.version() ||
      fresh->size() != live.size())
    errors->push_back(
        "recovered v" + std::to_string(fresh->version()) + " with " +
        std::to_string(fresh->size()) + " triples; acknowledged " +
        std::to_string(acked_commits) + " commits, live store v" +
        std::to_string(live.version()) + " with " +
        std::to_string(live.size()) + " triples");
  return r;
}

}  // namespace sqbench
