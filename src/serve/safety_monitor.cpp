#include "serve/safety_monitor.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace cocktail::serve {

SafetyMonitor SafetyMonitor::trust_all() {
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kAll;
  return monitor;
}

SafetyMonitor SafetyMonitor::inside_box(sys::Box box, double margin) {
  if (margin < 0.0)
    throw std::invalid_argument("SafetyMonitor: negative margin");
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kBox;
  monitor.box_ = std::move(box);
  monitor.margin_ = margin;
  return monitor;
}

SafetyMonitor SafetyMonitor::inside_invariant(
    const verify::InvariantResult& result, sys::Box domain, double margin) {
  if (margin < 0.0)
    throw std::invalid_argument("SafetyMonitor: negative margin");
  SafetyMonitor monitor;
  monitor.mode_ = Mode::kInvariant;
  monitor.margin_ = margin;
  // Built once here — the monitor stays immutable after construction, so
  // concurrent certified() calls share the index without a lock.
  monitor.invariant_ = std::make_shared<const verify::InvariantIndex>(
      result, std::move(domain));
  return monitor;
}

bool SafetyMonitor::certified(const la::Vec& state) const {
  // A corrupted observation certifies nothing, in *every* mode: the
  // exclusion-direction comparisons below are NaN-blind (each comparison is
  // false for NaN, so a garbage state would fall through as certified), and
  // even trust_all promises only that finite states are served by the
  // primary — a non-finite state always routes to the fallback.
  for (std::size_t d = 0; d < state.size(); ++d)
    if (!std::isfinite(state[d])) return false;
  switch (mode_) {
    case Mode::kNone:
      return false;
    case Mode::kAll:
      return true;
    case Mode::kBox: {
      if (state.size() != box_.dim()) return false;
      for (std::size_t d = 0; d < state.size(); ++d)
        if (state[d] < box_.lo[d] + margin_ ||
            state[d] > box_.hi[d] - margin_)
          return false;
      return true;
    }
    case Mode::kInvariant:
      return invariant_->covers(state, margin_);
  }
  return false;
}

double SafetyMonitor::action_deviation_bound(const ctrl::Controller& controller,
                                             double epsilon_inf) {
  const double lip = controller.lipschitz_bound();
  if (lip < 0.0) return -1.0;
  return lip * std::sqrt(static_cast<double>(controller.state_dim())) *
         epsilon_inf;
}

}  // namespace cocktail::serve
