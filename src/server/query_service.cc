#include "server/query_service.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace sparqluo {

namespace {

/// Runs a completion hook, swallowing anything it throws: hooks run on
/// pool workers (or the submitting thread on rejection) where an escaped
/// exception would std::terminate the process.
template <typename Response>
void InvokeCompletion(const std::function<void(const Response&)>& hook,
                      const Response& response) {
  if (!hook) return;
  try {
    hook(response);
  } catch (const std::exception& e) {
    SPARQLUO_LOG(kError) << "completion hook threw: " << e.what();
  } catch (...) {
    SPARQLUO_LOG(kError) << "completion hook threw an unknown exception";
  }
}

}  // namespace

QueryService::QueryService(const Database& db, Options options)
    : db_(db),
      options_(options),
      cache_(kPlanCacheCapacity),
      // A zero byte budget disables the result cache: every Put is
      // refused, and the sweep walks one empty shard.
      result_cache_(options.result_cache_bytes),
      stats_(options.enable_metrics) {
  assert(db.finalized() && "QueryService requires a finalized Database");
  if (options_.enable_metrics) {
    MetricRegistry& reg = MetricRegistry::Global();
    pinned_gauge_ = reg.GetGauge(
        "sparqluo_pinned_versions",
        "Distinct database versions currently pinned by in-flight requests");
    pinned_requests_gauge_ = reg.GetGauge(
        "sparqluo_pinned_requests",
        "In-flight requests currently holding a version pin");
    dedup_leaders_metric_ = reg.GetCounter(
        "sparqluo_dedup_leaders_total",
        "Executions whose result was shared with at least one follower");
  }
  // Cache invalidation is driven by the store itself: every published
  // version sweeps both caches, no matter which path committed it.
  commit_listener_ =
      db_.AddCommitListener([this](uint64_t v) { InvalidateCaches(v); });
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    size_t threads = options_.num_threads;
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    pool_ = std::make_shared<ExecutorPool>(threads);
    owns_pool_ = true;
  }
}

QueryService::QueryService(Database& db, Options options)
    : QueryService(static_cast<const Database&>(db), std::move(options)) {
  updatable_db_ = &db;
}

QueryService::~QueryService() {
  Shutdown();
  // After the listener is removed it can never fire again (removal blocks
  // on an in-flight invocation), so the caches it touches are safe to
  // destroy.
  db_.RemoveCommitListener(commit_listener_);
}

void QueryService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  // Only a service-owned pool is stopped; a shared pool outlives us. Done
  // outside mu_: pool workers finishing tasks take mu_ to decrement
  // in_flight_.
  if (owns_pool_) pool_->Shutdown();
}

bool QueryService::Admit(Status* reject) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    stats_.RecordRejected();
    *reject = Status::Overloaded("query service is shut down");
    return false;
  }
  // Admission control: pool size requests can run, max_queue more can
  // wait; everything beyond bounces immediately. kOverloaded (not
  // ResourceExhausted) so callers — the HTTP endpoint in particular — can
  // tell "retry later" apart from a query that died mid-flight.
  if (in_flight_ >= pool_->num_threads() + options_.max_queue) {
    stats_.RecordRejected();
    *reject = Status::Overloaded("admission queue full, request rejected");
    return false;
  }
  ++in_flight_;
  return true;
}

std::future<QueryResponse> QueryService::Submit(QueryRequest request) {
  auto task = std::make_shared<Task>();
  task->request = std::move(request);
  // Service-wide tracing creates the context before stamping the submission
  // time, so the context epoch precedes every span start (the root "query"
  // span and queue_wait both begin at `submitted`).
  if (options_.trace_queries && task->request.trace == nullptr)
    task->request.trace = std::make_shared<TraceContext>();
  task->submitted = std::chrono::steady_clock::now();
  std::future<QueryResponse> future = task->promise.get_future();
  Status reject;
  if (!Admit(&reject)) {
    QueryResponse rejected;
    rejected.status = std::move(reject);
    InvokeCompletion(task->request.on_complete, rejected);
    task->promise.set_value(std::move(rejected));
    return future;
  }
  stats_.RecordSubmitted();
  pool_->Submit([this, task] {
    QueryResponse response;
    // Nothing may escape Process(): an uncaught exception would unwind the
    // pool worker and std::terminate the whole service. bad_alloc from a
    // runaway intermediate is the realistic case; fail the one query.
    try {
      response = Process(*task);
    } catch (const std::exception& e) {
      response = QueryResponse();
      response.status = Status::Internal(std::string("query threw: ") +
                                         e.what());
    } catch (...) {
      response = QueryResponse();
      response.status = Status::Internal("query threw an unknown exception");
    }
    stats_.RecordFinished(response.status, response.metrics, response.total_ms,
                          response.rows.size(), response.deduped);
    if (options_.slow_query_ms > 0 &&
        response.total_ms >= options_.slow_query_ms) {
      stats_.RecordSlowQuery();
      uint64_t nth = slow_seen_.fetch_add(1, std::memory_order_relaxed);
      size_t sample = std::max<size_t>(1, options_.slow_query_sample);
      if (nth % sample == 0) {
        // One line per sampled slow query; the text is truncated so a
        // pathological query cannot flood the log.
        std::string text = task->request.text;
        if (text.size() > 200) text = text.substr(0, 200) + "...";
        SPARQLUO_LOG(kWarn)
            << "slow query (" << response.total_ms << " ms >= "
            << options_.slow_query_ms << " ms): status="
            << (response.status.ok() ? "ok" : response.status.message())
            << " rows=" << response.rows.size() << " cache_hit="
            << (response.plan_cache_hit ? "true" : "false") << " version="
            << response.version << " text=" << text;
      }
    }
    InvokeCompletion(task->request.on_complete, response);
    task->promise.set_value(std::move(response));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_.notify_all();
    }
  });
  return future;
}

std::future<UpdateResponse> QueryService::SubmitUpdate(UpdateRequest request) {
  auto state = std::make_shared<
      std::pair<UpdateRequest, std::promise<UpdateResponse>>>();
  state->first = std::move(request);
  std::future<UpdateResponse> future = state->second.get_future();
  Status reject;
  if (!Admit(&reject)) {
    UpdateResponse rejected;
    rejected.status = std::move(reject);
    InvokeCompletion(state->first.on_complete, rejected);
    state->second.set_value(std::move(rejected));
    return future;
  }
  stats_.RecordUpdateSubmitted();
  pool_->Submit([this, state] {
    UpdateResponse response;
    try {
      response = ProcessUpdate(state->first);
    } catch (const std::exception& e) {
      response = UpdateResponse();
      response.status =
          Status::Internal(std::string("update threw: ") + e.what());
    } catch (...) {
      response = UpdateResponse();
      response.status = Status::Internal("update threw an unknown exception");
    }
    stats_.RecordUpdateFinished(response.status, response.commit);
    InvokeCompletion(state->first.on_complete, response);
    state->second.set_value(std::move(response));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) cv_.notify_all();
    }
  });
  return future;
}

QueryService::VersionPin::VersionPin(
    QueryService* service, std::shared_ptr<const DatabaseVersion>* snap)
    : service_(service) {
  // Snapshot + register atomically: a commit whose eviction floor is
  // computed under the same mutex either runs first (this pin then
  // snapshots the new version) or sees this pin and keeps the
  // snapshotted version's plans. Snapshot() only touches the versioned
  // store's current_mu_, which is never held while mu_ is taken.
  std::lock_guard<std::mutex> lock(service_->mu_);
  *snap = service_->db_.Snapshot();
  version_ = (*snap)->id;
  service_->pinned_versions_.insert(version_);
  service_->UpdatePinnedGaugesLocked();
}

QueryService::VersionPin::~VersionPin() {
  std::lock_guard<std::mutex> lock(service_->mu_);
  auto it = service_->pinned_versions_.find(version_);
  if (it != service_->pinned_versions_.end())
    service_->pinned_versions_.erase(it);
  service_->UpdatePinnedGaugesLocked();
}

void QueryService::UpdatePinnedGaugesLocked() {
  if (pinned_gauge_ == nullptr) return;
  // pinned_versions_ is a multiset (one pin per in-flight request), so its
  // size() is the pin count, not the version count: N concurrent requests
  // on one version are one pinned version. Walk the distinct keys —
  // requests cluster on the current version, so this is O(distinct
  // versions), typically 1-2 steps.
  size_t distinct = 0;
  for (auto it = pinned_versions_.begin(); it != pinned_versions_.end();
       it = pinned_versions_.upper_bound(*it))
    ++distinct;
  pinned_gauge_->Set(static_cast<int64_t>(distinct));
  pinned_requests_gauge_->Set(
      static_cast<int64_t>(pinned_versions_.size()));
}

void QueryService::InvalidateCaches(uint64_t current_version) {
  std::vector<uint64_t> pinned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pinned.assign(pinned_versions_.begin(), pinned_versions_.end());
  }
  // EvictUnreachable wants sorted distinct versions; the multiset copy is
  // sorted already.
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  // Both sweeps run unconditionally: gating on enable_plan_cache (as the
  // pre-result-cache code did) would leave a plan-cache-disabled service's
  // result cache accumulating entries for dead versions forever. Disabled
  // caches are empty, so the extra sweep costs a few empty-shard locks.
  cache_.EvictUnreachable(current_version, pinned);
  result_cache_.EvictUnreachable(current_version, pinned);
}

UpdateResponse QueryService::ProcessUpdate(const UpdateRequest& request) {
  Timer timer;
  UpdateResponse response;
  if (updatable_db_ == nullptr) {
    response.status = Status::FailedPrecondition(
        "read-only query service: construct with a mutable Database to "
        "accept updates");
    response.total_ms = timer.ElapsedMillis();
    return response;
  }
  Result<CommitStats> commit =
      request.text.empty() ? updatable_db_->Apply(request.batch)
                           : updatable_db_->Update(request.text);
  response.status = commit.status();
  if (commit.ok()) {
    response.commit = *commit;
    // Version-scoped cache eviction happens inside the commit itself: the
    // store's commit listener runs InvalidateCaches for every published
    // version (see the constructor), so entries reachable by no reader —
    // neither keyed at the just-committed version nor at a version an
    // in-flight request still pins — are already gone by the time the
    // commit result reaches us. Plans and results for pinned older
    // versions survive (a queued request that snapshotted just before the
    // commit still gets its cache hit).
  }
  response.total_ms = timer.ElapsedMillis();
  return response;
}

std::vector<QueryResponse> QueryService::RunBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& req : requests) futures.push_back(Submit(std::move(req)));
  std::vector<QueryResponse> responses;
  responses.reserve(futures.size());
  for (auto& f : futures) responses.push_back(f.get());
  return responses;
}

QueryResponse QueryService::Process(Task& task) {
  // End-to-end latency is measured from submission, so queue wait counts.
  auto elapsed_ms = [&task] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - task.submitted)
        .count();
  };
  QueryResponse response;
  const QueryRequest& req = task.request;

  // Root "query" span: opened at submission time so queue wait is inside
  // it, closed (with outcome attrs) on every path out of this function.
  TraceContext* trace = req.trace.get();
  response.trace = req.trace;
  TraceContext::SpanId root = TraceContext::kNoSpan;
  if (trace != nullptr) {
    root = trace->StartSpanAt("query", TraceContext::kNoSpan, task.submitted);
    TraceContext::SpanId queue_span =
        trace->StartSpanAt("queue_wait", root, task.submitted);
    trace->EndSpan(queue_span);
  }
  auto finish_trace = [&](const QueryResponse& r) {
    if (trace == nullptr) return;
    trace->AddAttr(root, "version", std::to_string(r.version));
    trace->AddAttr(root, "cache_hit", r.plan_cache_hit ? "true" : "false");
    if (r.result_cache_hit) trace->AddAttr(root, "result_cache_hit", "true");
    if (r.deduped) trace->AddAttr(root, "deduped", "true");
    trace->AddAttr(root, "rows", std::to_string(r.rows.size()));
    trace->AddAttr(root, "status", r.status.ok() ? "ok" : r.status.ToString());
    trace->EndSpan(root);
  };

  // Effective deadline: per-request, falling back to the service default.
  // It is measured from submission, so time spent queued counts against it.
  std::chrono::milliseconds deadline = req.deadline.count() > 0
                                           ? req.deadline
                                           : options_.default_deadline;
  std::shared_ptr<CancelToken> owned;
  const CancelToken* cancel = nullptr;
  if (req.cancel != nullptr) {
    if (deadline.count() > 0) req.cancel->SetDeadline(task.submitted + deadline);
    cancel = req.cancel.get();
  } else if (deadline.count() > 0) {
    owned = std::make_shared<CancelToken>(task.submitted + deadline);
    cancel = owned.get();
  }

  ExecOptions options = req.options;
  options.cancel = cancel;
  options.trace = trace;
  options.trace_parent = root;
  // Intra-query parallelism: morsels fan out onto the service's own pool.
  // Requests keeping the default of 1 inherit the service-wide setting
  // unless they opted out (inherit_parallelism = false forces their
  // literal parallelism, so 1 means sequential).
  options.parallel.pool = pool_.get();
  if (req.inherit_parallelism && options.parallel.parallelism == 1)
    options.parallel.parallelism = options_.intra_query_parallelism;

  // Pin the version for the whole plan + execute: a commit that lands
  // mid-request cannot swap the store underneath this query, and the plan
  // cache key carries the pinned version so plans never cross versions.
  // The pin snapshots and registers the version in one step; it is the
  // eviction floor, so a commit landing while this request runs keeps
  // this version's cached plans.
  std::shared_ptr<const DatabaseVersion> snap;
  VersionPin pin(this, &snap);
  response.version = snap->id;

  // One key serves all three sharing layers: it carries the query form,
  // the normalized text, the plan-relevant option toggles and the pinned
  // version, so anything it matches is byte-identical by construction.
  const bool use_result_cache = options_.result_cache_bytes > 0;
  const bool want_key = options_.enable_plan_cache || use_result_cache;
  std::string key;
  if (want_key) key = PlanCache::MakeKey(req.text, options, snap->id);

  // Result cache: a hit is the whole response — rows and the plan that
  // produced them — with zero engine work.
  if (use_result_cache) {
    ScopedSpan lookup_span(trace, "result_cache_lookup", root);
    std::shared_ptr<const CachedResult> hit = result_cache_.Get(key);
    lookup_span.Attr("hit", hit != nullptr ? "true" : "false");
    if (hit != nullptr) {
      response.rows = hit->rows;  // copy; the entry stays shared in cache
      response.plan = hit->plan;
      response.result_cache_hit = true;
      response.total_ms = elapsed_ms();
      finish_trace(response);
      return response;
    }
  }

  // In-flight dedup: if an identical (key, version) query is already
  // executing, wait for its result instead of executing again. The leader
  // is by definition already running on a worker, so a follower blocking
  // here can never deadlock the leader — and the leader's own morsels
  // stay live even on a saturated pool because ParallelFor lets the
  // calling thread drain its morsel queue itself.
  std::shared_ptr<InflightQuery> inflight;
  bool leader = false;
  if (use_result_cache) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto [it, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<InflightQuery>();
      it->second->future = it->second->promise.get_future().share();
      leader = true;
    }
    inflight = it->second;
  }
  if (inflight != nullptr && !leader) {
    // Follower: wait on the leader with this request's OWN deadline and
    // cancellation. The leader's token is untouched — a follower giving
    // up never cancels the leader (other followers may still want the
    // result), and a leader failing never turns into a follower error:
    // the published null makes the follower fall through and execute for
    // itself, so errors are never shared, let alone cached.
    inflight->waiters.fetch_add(1, std::memory_order_relaxed);
    stats_.RecordDedupFollower();
    ScopedSpan wait_span(trace, "dedup_wait", root);
    std::shared_ptr<const CachedResult> shared;
    bool resolved = false;
    bool expired = false;
    while (true) {
      if (cancel != nullptr &&
          (cancel->cancel_requested() || cancel->Expired())) {
        expired = !cancel->cancel_requested();
        break;
      }
      if (inflight->future.wait_for(std::chrono::milliseconds(2)) ==
          std::future_status::ready) {
        shared = inflight->future.get();
        resolved = true;
        break;
      }
    }
    wait_span.Attr("outcome", !resolved ? (expired ? "deadline" : "cancelled")
                                        : (shared != nullptr
                                               ? "shared"
                                               : "leader_failed"));
    if (resolved && shared != nullptr) {
      response.rows = shared->rows;
      response.plan = shared->plan;
      response.deduped = true;
      response.total_ms = elapsed_ms();
      finish_trace(response);
      return response;
    }
    if (!resolved) {
      // The follower's own deadline/cancel fired first. Mirror the abort
      // shape the executor produces so the HTTP layer maps it the same
      // way (408 for deadline, etc.).
      response.metrics.aborted = true;
      response.metrics.abort_reason =
          expired ? AbortReason::kDeadline : AbortReason::kCancelled;
      response.status = expired
                            ? Status::ResourceExhausted("query deadline exceeded")
                            : Status::ResourceExhausted("query cancelled");
      response.total_ms = elapsed_ms();
      finish_trace(response);
      return response;
    }
    // Leader failed: fall through and execute this request normally.
    inflight = nullptr;
  }
  // Leader (or cache off / leader-failure fallthrough): execute, and
  // publish the outcome to any followers no matter how this scope exits.
  // The guard's destructor publishes null on exceptional exits so
  // followers never hang on a leader that threw.
  struct InflightGuard {
    QueryService* service;
    const std::string* key;
    std::shared_ptr<InflightQuery> entry;
    void Publish(std::shared_ptr<const CachedResult> result) {
      if (entry == nullptr) return;
      {
        std::lock_guard<std::mutex> lock(service->inflight_mu_);
        service->inflight_.erase(*key);
      }
      // Unregistered before resolving: a submission arriving now becomes
      // a fresh leader instead of joining a finished one.
      entry->promise.set_value(std::move(result));
      entry = nullptr;
    }
    ~InflightGuard() { Publish(nullptr); }
  } publish{this, &key, leader ? inflight : nullptr};

  std::shared_ptr<const CachedPlan> plan;
  if (options_.enable_plan_cache) {
    ScopedSpan lookup_span(trace, "plan_cache_lookup", root);
    plan = cache_.Get(key);
    lookup_span.Attr("hit", plan != nullptr ? "true" : "false");
  }
  if (plan != nullptr) {
    response.plan_cache_hit = true;
    // Report the cached plan's transform decisions; transform_ms stays 0 —
    // no transformation work happened on this request.
    response.metrics.transform = plan->transform;
  } else {
    Result<Query> parsed = [&] {
      ScopedSpan parse_span(trace, "parse", root);
      return db_.Parse(req.text);
    }();
    if (!parsed.ok()) {
      response.status = parsed.status();
      response.total_ms = elapsed_ms();
      finish_trace(response);
      return response;
    }
    auto built = std::make_shared<CachedPlan>();
    built->query = std::move(*parsed);
    built->tree =
        snap->executor->Plan(built->query, options, &response.metrics);
    Status valid = built->tree.Validate();
    if (!valid.ok()) {
      response.status = valid;
      response.total_ms = elapsed_ms();
      finish_trace(response);
      return response;
    }
    built->transform = response.metrics.transform;
    plan = built;
    if (options_.enable_plan_cache) cache_.Put(key, std::move(built), snap->id);
  }

  auto result =
      snap->executor->ExecutePlanned(plan->query, plan->tree, options,
                                     &response.metrics);
  response.status = result.status();
  if (result.ok()) response.rows = std::move(*result);
  // Hand the plan back so consumers can serialize `rows` (variable names
  // and the SELECT/ASK form live in plan->query).
  response.plan = std::move(plan);

  if (response.status.ok() &&
      (use_result_cache || publish.entry != nullptr)) {
    // One shared immutable copy serves both sharing layers: the result
    // cache keeps it for future requests, and waiting followers copy
    // their rows out of it. Only successful responses are ever published
    // or cached — failures and aborts always stay private to the request
    // that suffered them.
    auto shared = std::make_shared<CachedResult>();
    shared->rows = response.rows;
    shared->plan = response.plan;
    if (use_result_cache) result_cache_.Put(key, shared, snap->id);
    if (publish.entry != nullptr) {
      if (publish.entry->waiters.load(std::memory_order_relaxed) > 0 &&
          dedup_leaders_metric_ != nullptr)
        dedup_leaders_metric_->Increment();
      publish.Publish(std::move(shared));
    }
  }
  response.total_ms = elapsed_ms();
  finish_trace(response);
  return response;
}

}  // namespace sparqluo
