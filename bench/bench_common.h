// Shared machinery for the experiment-reproduction benchmark binaries.
//
// Scale note (docs/benchmarks.md): the paper runs LUBM at 0.5-2 B triples and
// DBpedia V3.9 (830M). These harnesses reproduce every experiment's
// *shape* at laptop scale — LUBM scale factors of a few universities
// (~100k triples each) and a DBpedia-like graph of a few hundred thousand
// triples. Relative comparisons (who wins, by what factor) are the
// reproduction target, not absolute times.
#pragma once

#include <memory>
#include <string>

#include "engine/database.h"
#include "workload/dbpedia_generator.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo::bench {

/// Default scales, overridable via environment variables
/// SPARQLUO_LUBM_UNIVERSITIES / SPARQLUO_DBPEDIA_ARTICLES.
inline size_t LubmUniversities() {
  const char* env = std::getenv("SPARQLUO_LUBM_UNIVERSITIES");
  // >= 13 so that queries anchored on University12 (q2.5, q2.6) bind.
  return env != nullptr ? static_cast<size_t>(std::atol(env)) : 13;
}
inline size_t DbpediaArticles() {
  const char* env = std::getenv("SPARQLUO_DBPEDIA_ARTICLES");
  return env != nullptr ? static_cast<size_t>(std::atol(env)) : 30000;
}

/// Intermediate-row guard standing in for the paper's OOM condition.
inline constexpr size_t kRowLimit = 8000000;

inline std::unique_ptr<Database> MakeLubm(size_t universities,
                                          EngineKind kind) {
  auto db = std::make_unique<Database>();
  LubmConfig cfg;
  cfg.universities = universities;
  GenerateLubm(cfg, db.get());
  db->Finalize(kind);
  return db;
}

inline std::unique_ptr<Database> MakeDbpedia(size_t articles,
                                             EngineKind kind) {
  auto db = std::make_unique<Database>();
  DbpediaConfig cfg;
  cfg.articles = articles;
  GenerateDbpedia(cfg, db.get());
  db->Finalize(kind);
  return db;
}

struct RunResult {
  bool ok = false;
  bool oom = false;
  double total_ms = 0.0;
  double transform_ms = 0.0;
  double join_space = 0.0;
  size_t rows = 0;
  size_t merges = 0;
  size_t injects = 0;
};

/// Runs one query under one approach with the row-limit guard.
inline RunResult RunQuery(Database& db, const std::string& sparql,
                          ExecOptions opts) {
  opts.max_intermediate_rows = kRowLimit;
  ExecMetrics m;
  RunResult out;
  auto r = db.Query(sparql, opts, &m);
  out.transform_ms = m.transform_ms;
  out.total_ms = m.transform_ms + m.exec_ms;
  out.join_space = m.join_space;
  out.merges = m.transform.merges;
  out.injects = m.transform.injects;
  if (r.ok()) {
    out.ok = true;
    out.rows = r->size();
  } else if (r.status().code() == StatusCode::kResourceExhausted) {
    out.oom = true;
  }
  return out;
}

}  // namespace sparqluo::bench
