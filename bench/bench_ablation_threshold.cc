// Ablation: candidate-pruning threshold sensitivity (docs/benchmarks.md
// index). Sweeps the fixed threshold fraction on the CP approach and
// contrasts with the adaptive threshold used by `full`, on the nested
// OPTIONAL queries where pruning matters most (q1.3, q1.4 on LUBM).
#include "bench_common.h"

int main() {
  using namespace sparqluo;
  using namespace sparqluo::bench;

  auto db = MakeLubm(LubmUniversities(), EngineKind::kWco);
  std::printf(
      "Candidate-pruning threshold ablation (LUBM, %zu triples)\n\n",
      db->size());
  std::printf("%-7s %-14s %12s %14s\n", "query", "threshold", "time(ms)",
              "rows");

  for (const char* id : {"q1.3", "q1.4", "q2.4", "q2.6"}) {
    const PaperQuery* pq = FindQuery(LubmPaperQueries(), id);
    if (pq == nullptr) continue;
    // No pruning at all.
    {
      RunResult r = RunQuery(*db, pq->sparql, ExecOptions::Base());
      std::printf("%-7s %-14s %12s %14zu\n", id, "off(base)",
                  TimeCell(r).c_str(), r.rows);
    }
    for (double frac : {0.0001, 0.001, 0.01, 0.1}) {
      ExecOptions opts = ExecOptions::CP();
      opts.fixed_threshold_fraction = frac;
      RunResult r = RunQuery(*db, pq->sparql, opts);
      char label[32];
      std::snprintf(label, sizeof(label), "fixed %.2f%%", frac * 100);
      std::printf("%-7s %-14s %12s %14zu\n", id, label, TimeCell(r).c_str(),
                  r.rows);
    }
    {
      RunResult r = RunQuery(*db, pq->sparql, ExecOptions::Full());
      std::printf("%-7s %-14s %12s %14zu\n", id, "adaptive(full)",
                  TimeCell(r).c_str(), r.rows);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "Expected shape: result counts identical across thresholds "
      "(correctness);\ntoo-small thresholds disable pruning (time ~= base), "
      "larger ones approach the\nadaptive setting.\n");
  return 0;
}
