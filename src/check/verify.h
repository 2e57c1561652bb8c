// Field-by-field comparison of two SimResults (DESIGN: src/check/).
//
// The engine's contract is that a run's SimResult depends only on its
// inputs: arming the checkers, tracing a workload to a .dag and replaying
// it, or serving it from the result store must all give the same result.
// diff_sim_results turns that contract into a check with a readable
// failure — it names the first differing field instead of failing an
// opaque equality.
#pragma once

#include <string>

#include "simarch/engine.h"

namespace cachesched {
namespace check {

/// "" when the two results are identical; otherwise a one-line
/// description of the first differing field, e.g.
/// "cycles: expected 12034, actual 12035". Scalar counters are compared
/// first, then the per-core and per-task vectors.
std::string diff_sim_results(const SimResult& expected,
                             const SimResult& actual);

}  // namespace check
}  // namespace cachesched
