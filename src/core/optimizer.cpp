// Optimizer result helpers. The search itself — including the parallel
// license-set driver — lives in core/engine.cpp.
#include "core/optimizer.hpp"

namespace ht::core {

std::string to_string(OptStatus status) {
  switch (status) {
    case OptStatus::kOptimal:
      return "optimal";
    case OptStatus::kFeasible:
      return "feasible";
    case OptStatus::kInfeasible:
      return "infeasible";
    case OptStatus::kUnknown:
      return "unknown";
  }
  return "?";
}

}  // namespace ht::core
