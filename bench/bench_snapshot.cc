// Cold-start benchmark: index rebuild vs SPQLUO2 mapped load.
//
// For each LUBM scale the harness generates the dataset, times the
// Finalize() that builds its indexes (three CSR permutation sorts plus
// statistics), saves a snapshot, then measures wall time from "process
// has a file" to "finalized database answers queries": the load pays CRC
// verification + an O(terms) dictionary decode and borrows the index
// arrays straight out of the mmap (plus a buffered-read mode for the
// no-mmap fallback path). A smoke query runs against every loaded
// database and must return the rows it returned before the save, so no
// load path can quietly return an unusable store.
//
// Usage:
//   bench_snapshot [--json FILE] [--lubm N1,N2,...] [--repeat N]
//                  [--check-speedup]
//
// --check-speedup exits non-zero when the mapped load + Finalize is not
// faster than the Finalize rebuild at every scale; CI runs it as the
// cold-start regression gate. (A legacy SPQLUO1 load costs interning and
// adding every triple on top of that same rebuild.)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "engine/snapshot.h"
#include "util/timer.h"

namespace {

using namespace sparqluo;
using namespace sparqluo::bench;

struct ScaleResult {
  size_t universities = 0;
  size_t triples = 0;
  size_t terms = 0;
  double build_ms = 0.0;          ///< Generate-free baseline: Finalize cost.
  uint64_t v2_file_bytes = 0;
  double v2_save_ms = 0.0;
  double v2_load_ms = 0.0;        ///< Load + Finalize, mmap mode.
  double v2_load_buffered_ms = 0.0;
  bool v2_mapped = false;
  double speedup = 0.0;           ///< build_ms / v2_load_ms.
  size_t resident_index_bytes = 0;
};

const char* kSmokeQuery =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "SELECT ?x WHERE { ?x ub:headOf ?d }";

/// Loads `path` into a fresh database, finalizes, runs the smoke query,
/// and returns the best-of-`repeat` wall time for load + Finalize.
double TimeLoad(const std::string& path, size_t repeat, bool allow_mmap,
                bool* mapped_out, size_t* rows_out) {
  double best_ms = 1e300;
  for (size_t rep = 0; rep < repeat; ++rep) {
    Database db;
    SnapshotLoadOptions opts;
    opts.allow_mmap = allow_mmap;
    SnapshotLoadInfo info;
    Timer timer;
    Status st = LoadSnapshot(path, &db, opts, &info);
    if (!st.ok()) {
      std::cerr << "load failed: " << st.ToString() << "\n";
      std::exit(1);
    }
    db.Finalize(EngineKind::kWco);
    best_ms = std::min(best_ms, timer.ElapsedMillis());
    if (mapped_out != nullptr) *mapped_out = info.mapped;
    auto r = db.Query(kSmokeQuery);
    if (!r.ok()) {
      std::cerr << "smoke query failed: " << r.status().ToString() << "\n";
      std::exit(1);
    }
    if (rows_out != nullptr) *rows_out = r->size();
  }
  return best_ms;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.is_open() ? static_cast<uint64_t>(in.tellg()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<size_t> scales = {1, 5, 13};
  size_t repeat = 3;
  bool check_speedup = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--json" && (v = next())) {
      json_path = v;
    } else if (arg == "--lubm" && (v = next())) {
      scales.clear();
      std::string list = v;
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        scales.push_back(
            static_cast<size_t>(std::atol(list.substr(pos, comma - pos).c_str())));
        pos = comma + 1;
      }
    } else if (arg == "--repeat" && (v = next())) {
      repeat = std::max<size_t>(1, static_cast<size_t>(std::atol(v)));
    } else if (arg == "--check-speedup") {
      check_speedup = true;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return 2;
    }
  }

  const std::string dir = "bench_snapshot_tmp";
  const std::string v2_path = dir + ".v2.snapshot";

  std::vector<ScaleResult> results;
  bool gate_failed = false;
  std::printf("%-6s %10s %12s %12s %12s %12s %8s\n", "lubm", "triples",
              "rebuild ms", "v2 load ms", "v2 buf ms", "v2 bytes", "speedup");
  for (size_t universities : scales) {
    ScaleResult r;
    r.universities = universities;

    auto db = std::make_unique<Database>();
    LubmConfig cfg;
    cfg.universities = universities;
    GenerateLubm(cfg, db.get());
    {
      Timer t;
      db->Finalize(EngineKind::kWco);
      r.build_ms = t.ElapsedMillis();
    }
    r.triples = db->size();
    r.terms = db->dict().size();
    r.resident_index_bytes = db->store().IndexBytes();
    {
      Timer t;
      Status st = SaveSnapshot(*db, v2_path);
      r.v2_save_ms = t.ElapsedMillis();
      if (!st.ok()) {
        std::cerr << "v2 save failed: " << st.ToString() << "\n";
        return 1;
      }
    }
    auto ref = db->Query(kSmokeQuery);
    if (!ref.ok()) {
      std::cerr << "smoke query failed: " << ref.status().ToString() << "\n";
      return 1;
    }
    const size_t ref_rows = ref->size();
    db.reset();  // The loads below must be genuine cold starts.
    r.v2_file_bytes = FileBytes(v2_path);

    size_t mapped_rows = 0, buffered_rows = 0;
    r.v2_load_ms = TimeLoad(v2_path, repeat, /*allow_mmap=*/true,
                            &r.v2_mapped, &mapped_rows);
    r.v2_load_buffered_ms = TimeLoad(v2_path, repeat, /*allow_mmap=*/false,
                                     nullptr, &buffered_rows);
    if (mapped_rows != ref_rows || buffered_rows != ref_rows) {
      std::cerr << "smoke query disagrees after reload: " << ref_rows
                << " rows before the save, " << mapped_rows << " mapped, "
                << buffered_rows << " buffered\n";
      return 1;
    }
    r.speedup = r.v2_load_ms > 0.0 ? r.build_ms / r.v2_load_ms : 0.0;

    std::printf("%-6zu %10zu %12.1f %12.1f %12.1f %12llu %7.1fx\n",
                r.universities, r.triples, r.build_ms, r.v2_load_ms,
                r.v2_load_buffered_ms,
                static_cast<unsigned long long>(r.v2_file_bytes), r.speedup);
    if (check_speedup && r.v2_load_ms >= r.build_ms) {
      std::fprintf(stderr,
                   "# FAIL: v2 load (%.1f ms) is not faster than the index "
                   "rebuild (%.1f ms) at lubm %zu\n",
                   r.v2_load_ms, r.build_ms, universities);
      gate_failed = true;
    }
    results.push_back(r);
  }
  std::remove(v2_path.c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"snapshot\",\n  \"hardware_threads\": "
        << std::thread::hardware_concurrency() << ",\n  \"repeat\": " << repeat
        << ",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const ScaleResult& r = results[i];
      out << "    {\"lubm_universities\": " << r.universities
          << ", \"store_triples\": " << r.triples
          << ", \"dict_terms\": " << r.terms
          << ", \"finalize_build_ms\": " << r.build_ms
          << ",\n     \"v2_file_bytes\": " << r.v2_file_bytes
          << ", \"v2_save_ms\": " << r.v2_save_ms
          << ", \"v2_load_ms\": " << r.v2_load_ms
          << ", \"v2_load_buffered_ms\": " << r.v2_load_buffered_ms
          << ", \"v2_mapped\": " << (r.v2_mapped ? "true" : "false")
          << ", \"speedup_rebuild_over_v2\": " << r.speedup
          << ",\n     \"resident_index_bytes\": " << r.resident_index_bytes
          << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "# wrote " << json_path << "\n";
  }
  return gate_failed ? 1 : 0;
}
