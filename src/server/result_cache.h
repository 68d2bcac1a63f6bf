// Sharded, byte-budgeted LRU cache of finished query results.
//
// One level above the plan cache: where a plan-cache hit skips parsing and
// transformation but still re-executes the BGPs, a result-cache hit serves
// the finished BindingSet without touching the engines at all. Both caches
// are instances of VersionedLru (server/versioned_lru.h), so soundness
// comes from the same two properties:
//
//   - entries are keyed by PlanCache::MakeKey — the normalized query text,
//     the plan-relevant option toggles, and the DatabaseVersion the query
//     executed against — so results can never be served across versions,
//   - commits run the version-reachability sweep (EvictUnreachable) over
//     both caches through QueryService::InvalidateCaches: an entry
//     survives a commit only while its version is the current one or is
//     still pinned by an in-flight request.
//
// Budgeting is by bytes, not entries: result sizes span six orders of
// magnitude (an ASK row vs a million-row SELECT), so an entry budget would
// either starve small results or let a handful of giants own all memory.
// A result larger than a whole shard's budget is not cached at all.
#pragma once

#include <string>

#include "algebra/binding_set.h"
#include "server/plan_cache.h"
#include "server/versioned_lru.h"

namespace sparqluo {

/// An immutable finished result: the rows plus the plan that produced them
/// (serializers need the plan's Query — variable names and query form — to
/// render the rows; sharing it also re-warms the plan on a result hit).
/// Only successful results may be cached — callers must never Put a
/// failed or aborted response.
struct CachedResult {
  BindingSet rows;
  std::shared_ptr<const CachedPlan> plan;
};

/// LRU of results, charged EntryBytes per entry. A budget of 0 refuses
/// every Put; QueryService uses it for a disabled result cache.
class ResultCache : public VersionedLru<CachedResult> {
 public:
  explicit ResultCache(size_t byte_budget, size_t shards = 8)
      : VersionedLru(byte_budget, shards, &EntryBytes, "sparqluo_result_cache",
                     "Result cache", "bytes") {}

  /// Accounted size of one entry: the rows' cell payload plus the key
  /// (which each shard stores twice: list entry + index).
  static size_t EntryBytes(const std::string& key, const CachedResult& result) {
    // Width-0 results (ASK, SELECT over no variables) carry no cells but
    // still occupy an entry; charge a row-count-independent floor so a
    // million cached ASKs cannot be "free".
    size_t cells = result.rows.width() == 0
                       ? result.rows.size()
                       : result.rows.size() * result.rows.width();
    return cells * sizeof(TermId) + 2 * key.size() + sizeof(Entry) + 64;
  }
};

}  // namespace sparqluo
