// Checks how much of each request the benchmark's layer spans account for.
//
// The benchmark wraps each public call a request passes through in a span
// (one TraceContext per client thread, one root span per request). A root's
// covered time is the union of its children's intervals; what is left is
// time no layer span explains, such as the benchmark's own bookkeeping.
#pragma once

#include "obs/trace.h"

namespace sqbench {

struct TraceFold {
  double root_ms = 0.0;          ///< summed duration of the root spans
  double root_covered_ms = 0.0;  ///< the part of it their children cover

  void Add(const sparqluo::TraceContext& ctx);
};

}  // namespace sqbench
