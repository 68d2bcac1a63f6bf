#include "trace_fold.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace sqbench {

using sparqluo::TraceContext;
using sparqluo::TraceSpan;

void TraceFold::Add(const TraceContext& ctx) {
  const std::vector<TraceSpan> spans = ctx.Snapshot();
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != TraceContext::kNoSpan && spans[i].parent < spans.size())
      children[spans[i].parent].push_back(i);

  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (span.parent != TraceContext::kNoSpan || span.dur_us < 0) continue;
    const int64_t begin = span.start_us, end = span.start_us + span.dur_us;
    // Union of the children's intervals, clipped to the root.
    std::vector<std::pair<int64_t, int64_t>> parts;
    for (size_t c : children[i]) {
      if (spans[c].dur_us < 0) continue;
      int64_t b = std::max(begin, spans[c].start_us);
      int64_t e = std::min(end, spans[c].start_us + spans[c].dur_us);
      if (b < e) parts.emplace_back(b, e);
    }
    std::sort(parts.begin(), parts.end());
    int64_t covered = 0, reach = begin;
    for (const auto& [b, e] : parts) {
      if (e <= reach) continue;
      covered += e - std::max(b, reach);
      reach = e;
    }
    root_ms += static_cast<double>(span.dur_us) / 1000.0;
    root_covered_ms += static_cast<double>(covered) / 1000.0;
  }
}

}  // namespace sqbench
