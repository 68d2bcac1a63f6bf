// Figure 10: verification of optimizations. Execution time of base / TT /
// CP / full (plus TT-and-full transformation time) on q1.1-q1.6, in all
// four grids {gStore-WCO, Jena-HashJoin} x {LUBM, DBpedia}.
//
// Expected shape (paper §7.1): TT, CP and full beat base on every query;
// full is best (or ties) nearly everywhere, by 2x up to orders of
// magnitude; base hits the memory guard ("OOM") on several queries.
#include "bench_common.h"

namespace {

using namespace sparqluo;
using namespace sparqluo::bench;

void Grid(Database& db, const std::vector<PaperQuery>& queries,
          const char* dataset) {
  std::printf("--- %s, %s ---\n", db.engine().name(), dataset);
  std::printf("%-7s %12s %12s %12s %12s %14s\n", "query", "base(ms)",
              "TT(ms)", "CP(ms)", "full(ms)", "transform(ms)");
  for (const PaperQuery& pq : queries) {
    if (pq.id.rfind("q1.", 0) != 0) continue;
    RunResult base = RunQuery(db, pq.sparql, ExecOptions::Base());
    RunResult tt = RunQuery(db, pq.sparql, ExecOptions::TT());
    RunResult cp = RunQuery(db, pq.sparql, ExecOptions::CP());
    RunResult full = RunQuery(db, pq.sparql, ExecOptions::Full());
    std::printf("%-7s %12s %12s %12s %12s %14.2f\n", pq.id.c_str(),
                TimeCell(base).c_str(), TimeCell(tt).c_str(),
                TimeCell(cp).c_str(), TimeCell(full).c_str(),
                full.transform_ms);
    std::fflush(stdout);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace sparqluo;
  using namespace sparqluo::bench;

  std::printf("Figure 10: Verification of optimizations\n");
  std::printf("(row guard = %zu intermediate rows, shown as OOM)\n\n",
              kRowLimit);

  for (EngineKind kind : {EngineKind::kWco, EngineKind::kHashJoin}) {
    {
      auto db = MakeLubm(LubmUniversities(), kind);
      Grid(*db, LubmPaperQueries(), "LUBM");
    }
    {
      auto db = MakeDbpedia(DbpediaArticles(), kind);
      Grid(*db, DbpediaPaperQueries(), "DBpedia");
    }
  }
  std::printf(
      "Expected shape: base slowest everywhere (often OOM); TT and CP each "
      "win on\ndifferent queries; full best or tied on virtually all; "
      "transformation time is\nnegligible next to execution time.\n");
  return 0;
}
