// Sharded LRU cache of parsed + transformed query plans.
//
// Parsing and multi-level transformation (transform_ms) are pure functions
// of (query text, optimization mode, database version), so a concurrent
// query service can reuse plans across requests. Sharding, LRU order, the
// version sweep and entry lifetime come from VersionedLru; this file adds
// the plan value type and the cache key.
#pragma once

#include <string>

#include "betree/be_tree.h"
#include "engine/executor.h"
#include "server/versioned_lru.h"
#include "sparql/ast.h"

namespace sparqluo {

/// An immutable cached plan: the parsed query plus its (possibly
/// transformed) BE-tree, already validated.
struct CachedPlan {
  Query query;
  BeTree tree;
  TransformStats transform;  ///< Stats recorded when the plan was built.
};

/// LRU of plans, one budget unit per entry (server/versioned_lru.h).
class PlanCache : public VersionedLru<CachedPlan> {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`.
  explicit PlanCache(size_t capacity, size_t shards = 8)
      : VersionedLru(
            capacity, shards,
            [](const std::string&, const CachedPlan&) -> size_t { return 1; },
            "sparqluo_plan_cache", "Plan cache") {}

  /// Whitespace-normalized query text: runs of whitespace outside quoted
  /// literals collapse to one space so trivially reformatted queries share
  /// a cache entry.
  static std::string NormalizeQuery(const std::string& text);

  /// Cache key: a query-form tag (SELECT / ASK / CONSTRUCT) + normalized
  /// text + the option fields that affect planning + the database version
  /// the plan was built against. The form tag keeps plans for different
  /// query forms in disjoint key spaces; versioning the key makes
  /// cross-version hits impossible: after a commit, a repeated query
  /// misses and replans against the new version's statistics.
  static std::string MakeKey(const std::string& text,
                             const ExecOptions& options,
                             uint64_t version = 0);
};

}  // namespace sparqluo
