// LUBM-style synthetic dataset generator.
//
// Reproduces the Lehigh University Benchmark's univ-bench schema and naming
// scheme (http://swat.cse.lehigh.edu/projects/lubm/): the scale factor is
// the number of universities, and entity IRIs follow the original pattern
// (http://www.DepartmentJ.UniversityI.edu/UndergraduateStudentK, ...), so
// the paper's benchmark queries — which reference concrete LUBM entities
// such as UndergraduateStudent91 of Department0.University0 — bind exactly
// as intended. Generation is deterministic for a given seed.
//
// One university yields roughly 100k triples, matching real LUBM(1)'s
// density. (Substitution note: the paper runs LUBM at 0.5-2 billion
// triples; we reproduce the generator logic and sweep the scale factor at
// laptop scale — see docs/benchmarks.md.)
#pragma once

#include <cstdint>

#include "engine/database.h"

namespace sparqluo {

struct LubmConfig {
  /// Scale factor: number of universities.
  size_t universities = 1;
  uint64_t seed = 42;
  /// Density knob (1.0 = LUBM-like). Lower values shrink per-department
  /// population proportionally for fast unit tests.
  double density = 1.0;
  /// Pool of university IRIs that degreeFrom predicates draw from. Real
  /// LUBM references ~1000 universities regardless of how many are
  /// materialized; keeping the pool fixed preserves the degree-join
  /// selectivity (~1/pool) at small scale factors instead of letting the
  /// joins cross-multiply.
  size_t degree_pool = 1000;
};

/// Namespace IRIs used by the generator and the benchmark queries.
inline constexpr const char* kUbPrefix =
    "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
inline constexpr const char* kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Generates the dataset into `db` (before Finalize).
void GenerateLubm(const LubmConfig& config, Database* db);

}  // namespace sparqluo
