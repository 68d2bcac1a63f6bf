// Sharded, cost-budgeted, version-scoped LRU cache: the one mechanism
// behind both the plan cache (server/plan_cache.h, cost 1 per entry) and
// the result cache (server/result_cache.h, cost EntryBytes per entry).
//
//   - Sharding keeps lock hold times short under many worker threads; each
//     shard is an independent LRU (front = most recently used) under its
//     own mutex, holding budget/shards units of cost.
//   - Every entry records the database version it was built against (the
//     version is also baked into the key by PlanCache::MakeKey), so the
//     post-commit EvictUnreachable sweep can drop exactly the entries no
//     reader can reach any more.
//   - An entry costing more than a whole shard is refused (counted in
//     `oversize`): it would only evict the shard's working set and then be
//     evicted itself by the next insert. Eviction never removes a shard's
//     only entry.
//   - Entries are shared_ptr<const V>, so an entry evicted while a reader
//     still uses it stays alive until that reader finishes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace sparqluo {

template <typename V>
class VersionedLru {
 public:
  /// Cost of one entry in budget units; called once per Put.
  using CostFn = size_t (*)(const std::string& key, const V& value);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;  ///< LRU + version-sweep removals.
    uint64_t oversize = 0;   ///< Puts refused for exceeding a whole shard.
    size_t entries = 0;
    size_t cost = 0;         ///< Resident cost across shards.
  };

  /// `budget` is the total cost budget, split evenly across `shards`; the
  /// shard count is clamped to the budget so every shard can hold at least
  /// one unit. A budget of 0 refuses every Put. Per-shard metrics (label
  /// shard="N") are `<metric_prefix>_{hits,misses,evictions}_total`,
  /// `<metric_prefix>_entries` and, when `cost_unit` is set,
  /// `<metric_prefix>_<cost_unit>` with the resident cost. `what` names
  /// the cache in the metrics' help text.
  VersionedLru(size_t budget, size_t shards, CostFn cost,
               const std::string& metric_prefix, const std::string& what,
               const char* cost_unit = nullptr)
      : cost_(cost) {
    shards = std::clamp<size_t>(shards, 1, std::max<size_t>(budget, 1));
    per_shard_budget_ = (budget + shards - 1) / shards;
    shards_.reserve(shards);
    MetricRegistry& reg = MetricRegistry::Global();
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      std::string label = "shard=\"" + std::to_string(i) + "\"";
      shard->hits_metric = reg.GetCounter(metric_prefix + "_hits_total",
                                          what + " lookups served", label);
      shard->misses_metric = reg.GetCounter(metric_prefix + "_misses_total",
                                            what + " lookups missed", label);
      shard->evictions_metric =
          reg.GetCounter(metric_prefix + "_evictions_total",
                         what + " entries evicted", label);
      shard->entries_metric = reg.GetGauge(metric_prefix + "_entries",
                                           what + " resident entries", label);
      if (cost_unit != nullptr)
        shard->cost_metric =
            reg.GetGauge(metric_prefix + "_" + cost_unit,
                         what + " resident " + cost_unit, label);
      shards_.push_back(std::move(shard));
    }
  }

  VersionedLru(const VersionedLru&) = delete;
  VersionedLru& operator=(const VersionedLru&) = delete;

  /// Returns the entry for `key` (touching its LRU position), or null.
  std::shared_ptr<const V> Get(const std::string& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      shard.misses_metric->Increment();
      return nullptr;
    }
    ++shard.hits;
    shard.hits_metric->Increment();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->value;
  }

  /// Inserts (or replaces) the entry for `key`, then evicts least recently
  /// used entries until the shard is back under its budget. `version` is
  /// the database version the value was built against; EvictUnreachable
  /// uses it after commits.
  void Put(const std::string& key, std::shared_ptr<const V> value,
           uint64_t version = 0) {
    Shard& shard = ShardOf(key);
    const size_t cost = cost_(key, *value);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (cost > per_shard_budget_) {
      ++shard.oversize;
      return;
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Concurrent builders can race to insert the same key; keep the
      // newest and charge its cost.
      Entry& entry = *it->second;
      shard.cost -= entry.cost;
      entry.value = std::move(value);
      entry.version = version;
      entry.cost = cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.push_front(Entry{key, std::move(value), version, cost});
      shard.index.emplace(key, shard.lru.begin());
    }
    shard.cost += cost;
    while (shard.cost > per_shard_budget_ && shard.lru.size() > 1)
      EvictLocked(shard, std::prev(shard.lru.end()));
    PublishGaugesLocked(shard);
  }

  /// Drops every entry no reader can reach: one whose version is below
  /// `current_version` and not in `pinned_versions` (sorted ascending).
  /// Removals count as evictions. The query service runs this after each
  /// commit with the versions still pinned by in-flight requests, so an
  /// entry for a pinned older version survives until its last reader
  /// finishes, while entries for superseded intermediate versions stop
  /// occupying budget.
  void EvictUnreachable(uint64_t current_version,
                        const std::vector<uint64_t>& pinned_versions) {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (auto it = shard->lru.begin(); it != shard->lru.end();) {
        if (it->version >= current_version ||
            std::binary_search(pinned_versions.begin(), pinned_versions.end(),
                               it->version)) {
          ++it;
        } else {
          it = EvictLocked(*shard, it);
        }
      }
      PublishGaugesLocked(*shard);
    }
  }

  Stats GetStats() const {
    Stats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out.hits += shard->hits;
      out.misses += shard->misses;
      out.evictions += shard->evictions;
      out.oversize += shard->oversize;
      out.entries += shard->lru.size();
      out.cost += shard->cost;
    }
    return out;
  }

 protected:
  struct Entry {
    std::string key;
    std::shared_ptr<const V> value;
    uint64_t version = 0;
    size_t cost = 0;
  };

 private:
  using Iter = typename std::list<Entry>::iterator;

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::string, Iter> index;
    size_t cost = 0;  ///< Sum of Entry::cost currently resident.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t oversize = 0;
    // Process-global mirrors (obs/metrics.h), resolved at construction so
    // the locked paths only bump atomics.
    Counter* hits_metric = nullptr;
    Counter* misses_metric = nullptr;
    Counter* evictions_metric = nullptr;
    Gauge* entries_metric = nullptr;
    Gauge* cost_metric = nullptr;  ///< Null without a cost gauge.
  };

  Shard& ShardOf(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  /// Removes `it`, counting an eviction. Caller holds shard.mu.
  Iter EvictLocked(Shard& shard, Iter it) {
    shard.cost -= it->cost;
    shard.index.erase(it->key);
    ++shard.evictions;
    shard.evictions_metric->Increment();
    return shard.lru.erase(it);
  }

  /// Caller holds shard.mu.
  static void PublishGaugesLocked(Shard& shard) {
    shard.entries_metric->Set(static_cast<int64_t>(shard.lru.size()));
    if (shard.cost_metric != nullptr)
      shard.cost_metric->Set(static_cast<int64_t>(shard.cost));
  }

  CostFn cost_;
  size_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sparqluo
