// Design-space frontier sweeps.
//
// The paper reports single (lambda, A) points per benchmark; designers
// usually want the whole tradeoff curve — how much does tightening the
// area budget or the schedule length cost in license fees, and where does
// the constraint become infeasible? SynthesisEngine::sweep_frontier
// (RequestKind::kAreaFrontier / kLatencyFrontier) runs the optimizer across
// a constraint sweep and returns these labeled points (bench_frontier
// prints them as series).
#pragma once

#include <vector>

#include "core/optimizer.hpp"

namespace ht::core {

struct FrontierPoint {
  long long constraint = 0;  ///< the swept value (area or total latency)
  OptimizeResult result;
};

}  // namespace ht::core
