// Cooperative run guard: watchdog + cancellation for the simulation engine.
//
// Threads cannot be killed portably, so the engine *polls*: its event loop
// checks an optional RunGuard every few dozen outer iterations (an outer
// iteration retires at least one simulated event, so polls are rare relative to
// the per-reference hot path and cost nothing when no guard is set).
//
// A poll does three things, in order:
//   1. applies the `engine.stall` fault (sleeps, results unchanged) —
//      the knob that makes watchdog and live-kill tests deterministic;
//   2. raises InterruptedError if the cancel flag reports true
//      (SIGINT/SIGTERM observed by the CLI, or SweepOptions::cancel);
//   3. raises JobTimeoutError once the wall-clock deadline passes
//      (SweepOptions::job_timeout_ms).
//
// The sweep engine arms one guard per job and maps the two exceptions to
// quarantine (timeout) and drain-and-report (interrupt) respectively.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

namespace cachesched {
namespace robust {

class RunGuard {
 public:
  /// timeout_ms == 0 disables the watchdog; an empty cancel function
  /// disables cancellation. start() captures the deadline.
  RunGuard(uint64_t timeout_ms, std::function<bool()> cancelled);

  /// (Re)starts the wall-clock budget from now.
  void start();

  /// Throws InterruptedError / JobTimeoutError; applies engine.stall.
  void poll() const;

 private:
  uint64_t timeout_ms_;
  std::function<bool()> cancelled_;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace robust
}  // namespace cachesched
