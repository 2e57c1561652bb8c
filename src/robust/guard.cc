#include "robust/guard.h"

#include <thread>

#include "robust/errors.h"
#include "robust/faultinject.h"

namespace cachesched {
namespace robust {

RunGuard::RunGuard(uint64_t timeout_ms, std::function<bool()> cancelled)
    : timeout_ms_(timeout_ms), cancelled_(std::move(cancelled)) {
  start();
}

void RunGuard::start() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // Saturate: a budget past the end of the clock's range never expires,
  // where now + timeout_ms would overflow into the past and time the job
  // out at once.
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  deadline_ = timeout_ms_ >= static_cast<uint64_t>(headroom.count())
                  ? Clock::time_point::max()
                  : now + std::chrono::milliseconds(timeout_ms_);
}

void RunGuard::poll() const {
  if (fault_point(FaultSite::kEngineStall)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault_stall_ms()));
  }
  if (cancelled_ && cancelled_()) throw InterruptedError();
  if (timeout_ms_ != 0 && std::chrono::steady_clock::now() >= deadline_) {
    throw JobTimeoutError("job exceeded watchdog timeout (" +
                          std::to_string(timeout_ms_) + " ms)");
  }
}

}  // namespace robust
}  // namespace cachesched
