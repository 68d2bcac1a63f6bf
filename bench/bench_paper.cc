// The paper's §7 evaluation in one program (Tables 2-4, Figs. 10-13, the
// ablations):  bench_paper [--json FILE]
//
// LUBM and DBpedia are built once per BGP engine, plus Fig. 12's sweep.
// Every table is a view of one grid of cells (dataset, scale, engine,
// query, mode); a mode is an approach (base, TT, CP, full), CP at another
// fixed threshold (CP@<fraction>) or a baseline evaluator (lbr,
// binary-tree). Each cell gets one untimed warm-up, then kRuns timed runs;
// a cell that hits the row guard (the paper's OOM) runs once. Exit 1 when
// finished cells of one (dataset, scale, engine, query) disagree on their
// row count, or a cell fails other than by the row guard. The Fig. 10
// claims are reported, not gated. Schema: docs/benchmarks.md.
#include <algorithm>
#include <array>
#include <cmath>
#include <compare>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>
#include <vector>

#include "baseline/binary_tree_eval.h"
#include "baseline/lbr/lbr_engine.h"
#include "betree/builder.h"
#include "bench_common.h"
#include "util/timer.h"

namespace {

using namespace sparqluo;
using namespace sparqluo::bench;

/// Timed runs per cell, after one untimed warm-up.
constexpr int kRuns = 9;
/// Fig. 12's LUBM sweep (universities), full mode on WCO.
constexpr size_t kSweep[] = {1, 2, 4, 8};
/// Threshold ablation rows: label, cell mode, and the CP threshold that
/// mode adds to the grid (0 for a mode already in it).
struct Threshold {
  const char* label;
  const char* mode;
  double fraction;
};
constexpr Threshold kThresholds[] = {{"off(base)", "base", 0},
                                     {"fixed 0.01%", "CP@0.0001", 0.0001},
                                     {"fixed 0.10%", "CP@0.001", 0.001},
                                     {"fixed 1.00%", "CP", 0},
                                     {"fixed 10.00%", "CP@0.1", 0.1},
                                     {"adaptive(full)", "full", 0}};

struct Named {
  const char* key;
  const char* label;
  EngineKind kind = EngineKind::kWco;  ///< Engines only.
};
constexpr Named kDatasets[] = {{"lubm", "LUBM"}, {"dbpedia", "DBpedia"}};
constexpr Named kEngines[] = {{"wco", "gStore-WCO", EngineKind::kWco},
                              {"hashjoin", "Jena-HashJoin",
                               EngineKind::kHashJoin}};

struct Mode {
  const char* name;
  ExecOptions opts;
};
const Mode kModes[] = {{"base", ExecOptions::Base()},
                       {"TT", ExecOptions::TT()},
                       {"CP", ExecOptions::CP()},
                       {"full", ExecOptions::Full()}};

const char* kLubmPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

/// Engine ablation: characteristic BGP shapes on LUBM, full mode.
constexpr std::pair<const char*, const char*> kShapes[] = {
    {"selective-path", "SELECT * WHERE { <http://www.Department0.University0"
     ".edu/UndergraduateStudent91> ub:takesCourse ?c . ?t ub:teacherOf ?c . "
     "?t ub:worksFor ?d . }"},
    {"unselective-star", "SELECT * WHERE { ?x ub:emailAddress ?e . "
     "?x ub:telephone ?t . ?x ub:name ?n . }"},
    {"triangle", "SELECT * WHERE { ?s ub:advisor ?p . ?p ub:teacherOf ?c . "
     "?s ub:takesCourse ?c . }"},
    {"degree-join", "SELECT * WHERE { ?a ub:undergraduateDegreeFrom ?u . "
     "?b ub:doctoralDegreeFrom ?u . "
     "?a ub:worksFor <http://www.Department0.University0.edu> . }"},
};

/// Binary-tree ablation at LUBM(1): Fig. 3's selective anchor joined with
/// a pervasive attribute pattern, and Fig. 2's UNION + OPTIONAL shape.
constexpr std::pair<const char*, const char*> kMotivating[] = {
    {"fig3-anchor", "SELECT * WHERE { <http://www.Department0.University0"
     ".edu/UndergraduateStudent91> ub:takesCourse ?c . ?x ub:takesCourse ?c "
     ". ?x ub:emailAddress ?email . }"},
    {"fig2-union", "SELECT * WHERE { <http://www.Department0.University0"
     ".edu/UndergraduateStudent91> ub:memberOf ?d . { ?x ub:worksFor ?d . } "
     "UNION { ?x ub:headOf ?d . } OPTIONAL { ?p ub:publicationAuthor ?x . } }"},
};

struct Key {
  std::string dataset;  ///< "lubm" | "dbpedia"
  size_t scale = 0;     ///< Universities or articles.
  std::string engine;   ///< BGP engine of the database read.
  std::string query;
  std::string mode;
  auto operator<=>(const Key&) const = default;
};

/// One measured cell: the last run's rows and counters, with the median
/// and quartiles of the timed runs (`r.transform_ms` is their median).
/// A cell that did not finish keeps only `r.ok` and `r.oom`.
struct Cell {
  RunResult r;
  double q1_ms = 0.0, median_ms = 0.0, q3_ms = 0.0;
};

struct Claim {
  std::string engine, dataset, name;
  std::vector<std::string> violations;
};

/// Everything measured; the tables below are views of it.
struct Bench {
  std::map<Key, Cell> cells;
  /// Table 2: triples, entities, predicates, literals per (dataset, scale).
  std::map<std::pair<std::string, size_t>, std::array<uint64_t, 4>> datasets;
  /// Tables 3-4: Count_BGP and Depth per (dataset, query).
  std::map<std::pair<std::string, std::string>, std::pair<size_t, size_t>>
      trees;
  size_t lubm = LubmUniversities();
  size_t dbpedia = DbpediaArticles();

  size_t Scale(const std::string& dataset) const {
    return dataset == "lubm" ? lubm : dbpedia;
  }
  const Cell* Find(const Key& key) const {
    auto it = cells.find(key);
    return it == cells.end() ? nullptr : &it->second;
  }
  /// A cell of the default-scale grid.
  const Cell* At(const std::string& dataset, const std::string& engine,
                 const std::string& query, const std::string& mode) const {
    return Find({dataset, Scale(dataset), engine, query, mode});
  }
};

const std::vector<PaperQuery>& Queries(const std::string& dataset) {
  return dataset == "lubm" ? LubmPaperQueries() : DbpediaPaperQueries();
}

bool GroupOne(const PaperQuery& pq) { return pq.id.rfind("q1.", 0) == 0; }

/// Measures the cell (`where` names dataset, scale and engine) unless the
/// grid already holds it.
template <typename Run>
void Add(Bench& b, Key where, const std::string& query,
         const std::string& mode, Run run) {
  where.query = query;
  where.mode = mode;
  if (b.cells.count(where) != 0) return;
  Cell cell;
  cell.r = run();  // Warm-up; a row-guard hit or an error is final.
  std::vector<double> total, transform;
  for (int i = 0; cell.r.ok && i < kRuns; ++i) {
    cell.r = run();
    total.push_back(cell.r.total_ms);
    transform.push_back(cell.r.transform_ms);
  }
  if (cell.r.ok) {
    std::sort(total.begin(), total.end());
    std::sort(transform.begin(), transform.end());
    cell.q1_ms = total[(kRuns - 1) / 4];
    cell.median_ms = total[(kRuns - 1) / 2];
    cell.q3_ms = total[3 * (kRuns - 1) / 4];
    cell.r.transform_ms = transform[(kRuns - 1) / 2];
  } else {
    cell.r = RunResult{.ok = false, .oom = cell.r.oom};
  }
  b.cells.emplace(where, cell);
}

void AddMode(Bench& b, const Key& where, Database& db,
             const std::string& query, const std::string& sparql,
             const std::string& mode, const ExecOptions& opts) {
  Add(b, where, query, mode, [&] { return RunQuery(db, sparql, opts); });
}

/// Times a baseline evaluator; a query that does not parse is an error.
template <typename Evaluator>
RunResult RunEvaluator(const Evaluator& eval, const Result<Query>& q) {
  if (!q.ok()) return {};
  Timer t;
  Result<BindingSet> r = eval.Execute(*q);
  return {.ok = r.ok(),
          .oom = r.status().code() == StatusCode::kResourceExhausted,
          .total_ms = t.ElapsedMillis(),
          .rows = r.ok() ? r->size() : 0};
}

void RecordDataset(Bench& b, const Key& where, const Database& db) {
  const Statistics& st = db.stats();
  b.datasets.emplace(std::pair{where.dataset, where.scale},
                     std::array<uint64_t, 4>{st.num_triples(),
                                             st.num_entities(),
                                             st.num_predicates(),
                                             st.num_literals()});
}

/// The default-scale grid of one database: every paper query in every
/// mode, LBR on q2.x (WCO), the threshold ablation (LUBM, WCO) and the
/// engine-ablation shapes (LUBM).
void MeasureMain(Bench& b, const Key& where, Database& db) {
  const bool wco = where.engine == "wco";
  const bool lubm = where.dataset == "lubm";
  const std::vector<PaperQuery>& queries = Queries(where.dataset);
  RecordDataset(b, where, db);
  LbrEngine lbr(db.store(), db.dict());
  for (const PaperQuery& pq : queries) {
    auto q = db.Parse(pq.sparql);
    if (q.ok()) {
      BeTree tree = BuildBeTree(*q);
      b.trees[{where.dataset, pq.id}] = {tree.CountBgp(), tree.Depth()};
    }
    for (const Mode& m : kModes)
      AddMode(b, where, db, pq.id, pq.sparql, m.name, m.opts);
    if (wco && !GroupOne(pq))
      Add(b, where, pq.id, "lbr", [&] { return RunEvaluator(lbr, q); });
  }
  for (const char* id : {"q1.3", "q1.4", "q2.4", "q2.6"}) {
    for (const Threshold& t : kThresholds) {
      if (!wco || !lubm || t.fraction == 0) continue;
      ExecOptions opts = ExecOptions::CP();
      opts.fixed_threshold_fraction = t.fraction;
      AddMode(b, where, db, id, FindQuery(queries, id)->sparql, t.mode, opts);
    }
  }
  for (const auto& [name, body] : kShapes)
    if (lubm)
      AddMode(b, where, db, name, std::string(kLubmPrefix) + body, "full",
              ExecOptions::Full());
}

/// Fig. 12's sweep point, plus the binary-tree ablation at LUBM(1).
void MeasureSweep(Bench& b, const Key& where, Database& db) {
  RecordDataset(b, where, db);
  for (const PaperQuery& pq : LubmPaperQueries())
    if (GroupOne(pq))
      AddMode(b, where, db, pq.id, pq.sparql, "full", ExecOptions::Full());
  if (where.scale != 1) return;
  BinaryTreeEvaluator binary(db.store(), db.dict());
  for (const auto& [name, body] : kMotivating) {
    std::string sparql = std::string(kLubmPrefix) + body;
    auto q = db.Parse(sparql);
    Add(b, where, name, "binary-tree", [&] { return RunEvaluator(binary, q); });
    AddMode(b, where, db, name, sparql, "base", ExecOptions::Base());
    AddMode(b, where, db, name, sparql, "full", ExecOptions::Full());
  }
}

std::string Format(const char* fmt, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return buf;
}

/// A time cell; OOM cells mirror the paper's absent bars.
std::string TimeCell(const Cell* c) {
  if (c == nullptr) return "-";
  if (!c->r.ok) return c->r.oom ? "OOM" : "err";
  return Format("%.3f", c->median_ms);
}

std::string RowsCell(const Cell* c) {
  return c != nullptr && c->r.ok ? std::to_string(c->r.rows) : TimeCell(c);
}

/// Prints one table row: the first column left-aligned, the rest right.
void Row(const std::vector<std::string>& cols) {
  std::printf("%-20s", cols[0].c_str());
  for (size_t i = 1; i < cols.size(); ++i)
    std::printf(" %10s", cols[i].c_str());
  std::printf("\n");
}

void PrintTables(const Bench& b) {
  std::printf("Table 2: Datasets Statistics (generated, laptop scale)\n");
  Row({"Dataset", "scale", "triples", "entities", "predicates", "literals"});
  for (const Named& d : kDatasets) {
    auto it = b.datasets.find({d.key, b.Scale(d.key)});
    if (it == b.datasets.end()) continue;
    std::vector<std::string> cols = {d.label, std::to_string(b.Scale(d.key))};
    for (uint64_t n : it->second) cols.push_back(std::to_string(n));
    Row(cols);
  }
  std::printf("\n");

  for (const Named& d : kDatasets) {
    std::printf("Table %d: Query Statistics on %s (full, gStore-WCO)\n",
                std::strcmp(d.key, "lubm") == 0 ? 3 : 4, d.label);
    Row({"Query", "Type", "Count_BGP", "Depth", "|[[Q]]_D|"});
    for (const PaperQuery& pq : Queries(d.key)) {
      auto it = b.trees.find({d.key, pq.id});
      if (it == b.trees.end()) continue;
      Row({pq.id, pq.type, std::to_string(it->second.first),
           std::to_string(it->second.second),
           RowsCell(b.At(d.key, "wco", pq.id, "full"))});
    }
    std::printf("\n");
  }
}

/// Figs. 10 and 11 share one table per engine and dataset.
void PrintFig10And11(const Bench& b) {
  std::printf("Figures 10-11: median of %d runs (ms; row guard = %zu rows, "
              "shown as OOM), full's transform time, join space JS\n",
              kRuns, kRowLimit);
  for (const Named& e : kEngines) {
    for (const Named& d : kDatasets) {
      std::printf("--- %s, %s ---\n", e.label, d.label);
      Row({"query", "base", "TT", "CP", "full", "transform", "JS(base)",
           "JS(TT)", "JS(CP)", "JS(full)"});
      for (const PaperQuery& pq : Queries(d.key)) {
        if (!GroupOne(pq)) continue;
        std::vector<std::string> cols = {pq.id}, js;
        for (const Mode& m : kModes) {
          const Cell* c = b.At(d.key, e.key, pq.id, m.name);
          cols.push_back(TimeCell(c));
          js.push_back(c->r.ok ? Format("%.3e", c->r.join_space) : "-");
        }
        cols.push_back(
            Format("%.3f", b.At(d.key, e.key, pq.id, "full")->r.transform_ms));
        cols.insert(cols.end(), js.begin(), js.end());
        Row(cols);
      }
    }
  }
  std::printf("\n");
}

void PrintFig12And13(const Bench& b) {
  std::printf("Figure 12: full-approach time (ms) vs LUBM size, gStore-WCO\n");
  std::vector<std::string> header = {"scale", "triples"};
  for (const PaperQuery& pq : LubmPaperQueries())
    if (GroupOne(pq)) header.push_back(pq.id);
  Row(header);
  for (size_t scale : kSweep) {
    auto it = b.datasets.find({"lubm", scale});
    std::vector<std::string> cols = {
        std::to_string(scale),
        std::to_string(it == b.datasets.end() ? 0 : it->second[0])};
    for (const PaperQuery& pq : LubmPaperQueries())
      if (GroupOne(pq))
        cols.push_back(TimeCell(b.Find({"lubm", scale, "wco", pq.id, "full"})));
    Row(cols);
  }
  std::printf("\n");

  std::printf("Figure 13: full vs LBR on OPTIONAL queries, gStore-WCO\n");
  for (const Named& d : kDatasets) {
    std::printf("--- %s ---\n", d.label);
    Row({"query", "LBR(ms)", "full(ms)", "speedup", "rows(LBR)", "rows(full)"});
    for (const PaperQuery& pq : Queries(d.key)) {
      if (GroupOne(pq)) continue;
      const Cell* lbr = b.At(d.key, "wco", pq.id, "lbr");
      const Cell* full = b.At(d.key, "wco", pq.id, "full");
      bool both = lbr != nullptr && lbr->r.ok && full != nullptr &&
                  full->r.ok && full->median_ms > 0;
      Row({pq.id, TimeCell(lbr), TimeCell(full),
           both ? Format("%.1fx", lbr->median_ms / full->median_ms) : "-",
           RowsCell(lbr), RowsCell(full)});
    }
  }
  std::printf("\n");
}

void PrintAblations(const Bench& b) {
  std::printf("Ablation: candidate-pruning threshold (LUBM, gStore-WCO)\n");
  Row({"query threshold", "time(ms)", "rows"});
  for (const char* id : {"q1.3", "q1.4", "q2.4", "q2.6"}) {
    for (const Threshold& t : kThresholds) {
      const Cell* c = b.At("lubm", "wco", id, t.mode);
      Row({std::string(id) + " " + t.label, TimeCell(c), RowsCell(c)});
    }
  }

  std::printf("\nAblation: host engines (LUBM, full, ms; for the paper "
              "queries see Fig. 10's full column)\n");
  Row({"shape", "WCO", "HashJoin"});
  for (const auto& [name, body] : kShapes)
    Row({name, TimeCell(b.At("lubm", "wco", name, "full")),
         TimeCell(b.At("lubm", "hashjoin", name, "full"))});

  std::printf("\nAblation: binary-tree evaluation (LUBM(1), gStore-WCO, ms)\n");
  Row({"query", "binary-tree", "base", "full", "rows"});
  for (const auto& [name, body] : kMotivating) {
    std::vector<std::string> cols = {name};
    for (const char* mode : {"binary-tree", "base", "full"})
      cols.push_back(TimeCell(b.Find({"lubm", 1, "wco", name, mode})));
    cols.push_back(RowsCell(b.Find({"lubm", 1, "wco", name, "full"})));
    Row(cols);
  }
  std::printf("\n");
}

/// Fig. 10's claims per engine and dataset over q1.x, on medians; OOM is
/// slower than any time, and an error cannot be judged (NaN).
std::vector<Claim> Fig10Claims(const Bench& b) {
  std::vector<Claim> claims;
  for (const Named& e : kEngines) {
    for (const Named& d : kDatasets) {
      Claim slowest{e.key, d.key, "base_slowest", {}};
      Claim best{e.key, d.key, "full_within_10pct_of_min_tt_cp", {}};
      Claim transform{e.key, d.key, "transform_under_10pct_of_full", {}};
      for (const PaperQuery& pq : Queries(d.key)) {
        if (!GroupOne(pq)) continue;
        auto cost = [&](const char* mode) {
          const Cell* c = b.At(d.key, e.key, pq.id, mode);
          if (c == nullptr || (!c->r.ok && !c->r.oom)) return std::nan("");
          return c->r.ok ? c->median_ms : HUGE_VAL;
        };
        double base = cost("base");
        if (cost("TT") > base || cost("CP") > base || cost("full") > base)
          slowest.violations.push_back(pq.id);
        if (cost("full") > 1.1 * std::min(cost("TT"), cost("CP")))
          best.violations.push_back(pq.id);
        const Cell* full = b.At(d.key, e.key, pq.id, "full");
        if (full != nullptr && full->r.ok &&
            full->r.transform_ms >= 0.1 * full->median_ms)
          transform.violations.push_back(pq.id);
      }
      claims.insert(claims.end(), {slowest, best, transform});
    }
  }
  std::printf("Figure 10 claims (medians; OOM counts as slowest):\n");
  for (const Claim& c : claims) {
    std::printf("  %-8s %-8s %-31s %s", c.engine.c_str(), c.dataset.c_str(),
                c.name.c_str(), c.violations.empty() ? "held" : "violated:");
    for (const std::string& q : c.violations) std::printf(" %s", q.c_str());
    std::printf("\n");
  }
  std::printf("\n");
  return claims;
}

/// Finished cells of one (dataset, scale, engine, query) must agree on
/// their row count, and no cell may fail other than by the row guard.
bool CheckRows(const Bench& b) {
  bool agree = true;
  std::map<Key, std::pair<std::string, size_t>> first;
  for (const auto& [key, cell] : b.cells) {
    if (cell.r.oom) continue;
    std::string problem = "error";
    if (cell.r.ok) {
      auto [it, fresh] =
          first.emplace(Key{key.dataset, key.scale, key.engine, key.query, ""},
                        std::pair{key.mode, cell.r.rows});
      if (fresh || it->second.second == cell.r.rows) continue;
      problem = std::to_string(cell.r.rows) + " rows, " + it->second.first +
                " has " + std::to_string(it->second.second);
    }
    agree = false;
    std::fprintf(stderr, "row check failed: %s(%zu) %s %s %s: %s\n",
                 key.dataset.c_str(), key.scale, key.engine.c_str(),
                 key.query.c_str(), key.mode.c_str(), problem.c_str());
  }
  return agree;
}

void WriteJson(const Bench& b, const std::vector<Claim>& claims,
               bool rows_agree, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"paper\",\n  \"hardware_threads\": "
      << std::thread::hardware_concurrency() << ",\n  \"runs\": " << kRuns
      << ",\n  \"row_limit\": " << kRowLimit << ",\n  \"datasets\": [";
  const char* sep = "\n";
  for (const auto& [key, s] : b.datasets) {
    out << sep << "    {\"dataset\": \"" << key.first << "\", \"scale\": "
        << key.second << ", \"triples\": " << s[0] << ", \"entities\": "
        << s[1] << ", \"predicates\": " << s[2] << ", \"literals\": " << s[3]
        << "}";
    sep = ",\n";
  }
  out << "\n  ],\n  \"queries\": [";
  sep = "\n";
  for (const auto& [key, tree] : b.trees) {
    out << sep << "    {\"dataset\": \"" << key.first << "\", \"query\": \""
        << key.second << "\", \"type\": \""
        << FindQuery(Queries(key.first), key.second)->type
        << "\", \"count_bgp\": " << tree.first << ", \"depth\": "
        << tree.second << "}";
    sep = ",\n";
  }
  out << "\n  ],\n  \"cells\": [";
  sep = "\n";
  for (const auto& [k, c] : b.cells) {
    out << sep << "    {\"dataset\": \"" << k.dataset << "\", \"scale\": "
        << k.scale << ", \"engine\": \"" << k.engine << "\", \"query\": \""
        << k.query << "\", \"mode\": \"" << k.mode << "\", \"ok\": "
        << (c.r.ok ? "true" : "false") << ", \"oom\": "
        << (c.r.oom ? "true" : "false") << ", \"median_ms\": " << c.median_ms
        << ", \"q1_ms\": " << c.q1_ms << ", \"q3_ms\": " << c.q3_ms
        << ", \"transform_ms\": " << c.r.transform_ms << ", \"rows\": "
        << c.r.rows << ", \"join_space\": " << c.r.join_space
        << ", \"merges\": " << c.r.merges << ", \"injects\": " << c.r.injects
        << "}";
    sep = ",\n";
  }
  out << "\n  ],\n  \"claims\": [";
  sep = "\n";
  for (const Claim& c : claims) {
    out << sep << "    {\"engine\": \"" << c.engine << "\", \"dataset\": \""
        << c.dataset << "\", \"claim\": \"" << c.name << "\", \"held\": "
        << (c.violations.empty() ? "true" : "false") << ", \"violations\": [";
    for (size_t j = 0; j < c.violations.size(); ++j)
      out << (j > 0 ? ", " : "") << "\"" << c.violations[j] << "\"";
    out << "]}";
    sep = ",\n";
  }
  out << "\n  ],\n  \"rows_agree\": " << (rows_agree ? "true" : "false")
      << "\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "unknown option " << argv[i]
                << "\nusage: bench_paper [--json FILE]\n";
      return 2;
    }
  }

  Bench b;
  for (const Named& e : kEngines) {
    for (const Named& d : kDatasets) {
      std::fprintf(stderr, "measuring %s on %s\n", d.key, e.key);
      auto db = std::strcmp(d.key, "lubm") == 0
                    ? MakeLubm(b.lubm, e.kind)
                    : MakeDbpedia(b.dbpedia, e.kind);
      MeasureMain(b, {d.key, b.Scale(d.key), e.key, "", ""}, *db);
    }
  }
  for (size_t scale : kSweep) {
    std::fprintf(stderr, "measuring lubm(%zu) on wco\n", scale);
    auto db = MakeLubm(scale, EngineKind::kWco);
    MeasureSweep(b, {"lubm", scale, "wco", "", ""}, *db);
  }

  PrintTables(b);
  PrintFig10And11(b);
  std::vector<Claim> claims = Fig10Claims(b);
  PrintFig12And13(b);
  PrintAblations(b);

  bool agree = CheckRows(b);
  std::printf("row agreement over %zu cells: %s\n", b.cells.size(),
              agree ? "ok" : "FAILED");
  if (!json_path.empty()) WriteJson(b, claims, agree, json_path);
  return agree ? 0 : 1;
}
