// DBpedia-shaped synthetic dataset generator.
//
// Substitution (see docs/benchmarks.md): the paper evaluates on the real DBpedia
// V3.9 dump (830M triples), which is unavailable here. This generator
// produces an encyclopedic graph with the same *selectivity structure* the
// paper's analysis relies on:
//   - hub articles with skewed (Zipf) wikiPageWikiLink in-degree,
//   - pervasive low-selectivity attribute predicates (rdfs:label,
//     foaf:name, owl:sameAs, purl:subject, nsprov:wasDerivedFrom, ...),
//   - sparse typed subpopulations (dbo:SoccerPlayer, dbo:Settlement,
//     dbo:Airport, companies, persons) with their attribute clusters,
//   - the concrete anchor entities the benchmark queries reference
//     (dbr:Economic_system, dbr:Air_masses, dbr:Functional_neuroimaging,
//     dbr:Abdul_Rahim_Wardak, dbr:Category:Cell_biology), each with a
//     moderate, selective in-link population.
#pragma once

#include <cstdint>

#include "engine/database.h"

namespace sparqluo {

struct DbpediaConfig {
  /// Number of article entities (the generator adds categories, pages and
  /// typed subpopulations proportionally; ~12 triples per article).
  size_t articles = 20000;
  uint64_t seed = 7;
};

/// Generates the dataset into `db` (before Finalize).
void GenerateDbpedia(const DbpediaConfig& config, Database* db);

}  // namespace sparqluo
