// Query-lifecycle span tracing.
//
// A TraceContext records one request's execution as a tree of timed spans
// (parse, plan-cache lookup, transform, per-BGP evaluation, morsel tasks on
// the worker pool, projection/serialization), each with a start offset,
// duration, owning thread and free-form attributes. Two renderers:
//
//   RenderTree()             — human-readable --explain-analyze tree.
//   AppendChromeTraceEvents() — Chrome trace-event JSON, loadable in
//                               Perfetto / chrome://tracing.
//
// Design constraints, in order:
//   1. Disabled tracing is free. Every instrumentation point takes a
//      nullable TraceContext*; when it is null, ScopedSpan and friends
//      compile down to a pointer test — no allocation, no clock read.
//   2. Bounded memory when enabled. Spans are capped (max_spans); past the
//      cap StartSpan returns kNoSpan and counts the drop, so a query
//      fanning out into millions of morsels cannot balloon its trace.
//   3. Safe concurrent recording. Morsel spans are started/ended from pool
//      worker threads while the query thread records its own; a mutex
//      guards the span vector (enabled path only — see constraint 1).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace sparqluo {

/// One recorded span. Times are microseconds relative to the context epoch.
struct TraceSpan {
  uint32_t parent = 0xffffffffu;  ///< Index of the parent; kNoSpan for roots.
  int64_t start_us = 0;
  int64_t dur_us = -1;            ///< -1 while the span is still open.
  uint32_t tid = 0;               ///< Dense per-context thread index.
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
};

class TraceContext {
 public:
  using SpanId = uint32_t;
  static constexpr SpanId kNoSpan = 0xffffffffu;
  static constexpr size_t kDefaultMaxSpans = 4096;

  explicit TraceContext(size_t max_spans = kDefaultMaxSpans);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span starting now. Returns kNoSpan (and counts a drop) once
  /// the span cap is reached; every other method accepts kNoSpan as a
  /// harmless no-op id.
  SpanId StartSpan(std::string_view name, SpanId parent = kNoSpan);

  /// Opens a span with an explicit start time (e.g. queue wait measured
  /// from the submission timestamp).
  SpanId StartSpanAt(std::string_view name, SpanId parent,
                     std::chrono::steady_clock::time_point start);

  void EndSpan(SpanId id);

  /// Attaches a key/value attribute to an open or closed span.
  void AddAttr(SpanId id, std::string_view key, std::string value);

  size_t size() const;
  size_t dropped() const;

  /// Copy of all spans recorded so far (open spans keep dur_us == -1).
  std::vector<TraceSpan> Snapshot() const;

  /// Indented tree (children ordered by start time) with durations and
  /// attributes — the --explain-analyze rendering.
  std::string RenderTree() const;

  /// Appends one complete-event ("ph":"X") JSON object per span to `out`,
  /// comma-separated, for embedding in a {"traceEvents": [...]} document.
  /// `pid` distinguishes queries sharing a file; `ts_offset_us` shifts this
  /// context's epoch onto the file's common timeline. Emits nothing when
  /// the context is empty. Returns the number of events appended.
  size_t AppendChromeTraceEvents(int pid, int64_t ts_offset_us,
                                 std::string* out) const;

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Microseconds from `base` to this context's epoch (for multi-query
  /// trace files sharing one timeline).
  int64_t EpochOffsetUs(std::chrono::steady_clock::time_point base) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(epoch_ - base)
        .count();
  }

 private:
  int64_t NowUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }
  uint32_t TidLocked(std::thread::id id);

  const size_t max_spans_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  size_t dropped_ = 0;
  std::map<std::thread::id, uint32_t> tids_;
};

/// RAII span that is a no-op (no allocation, no clock read) on a null
/// context — the disabled-path guarantee every hot path relies on.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, std::string_view name,
             TraceContext::SpanId parent = TraceContext::kNoSpan)
      : ctx_(ctx),
        id_(ctx != nullptr ? ctx->StartSpan(name, parent)
                           : TraceContext::kNoSpan) {}
  ~ScopedSpan() {
    if (ctx_ != nullptr) ctx_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext::SpanId id() const { return id_; }

  void Attr(std::string_view key, std::string value) {
    if (ctx_ != nullptr) ctx_->AddAttr(id_, key, std::move(value));
  }

  /// Numeric attribute, formatted only when a context is attached (so the
  /// disabled path stays free of string work).
  void Attr(std::string_view key, uint64_t value) {
    if (ctx_ != nullptr) ctx_->AddAttr(id_, key, std::to_string(value));
  }

 private:
  TraceContext* ctx_;
  TraceContext::SpanId id_;
};

}  // namespace sparqluo
