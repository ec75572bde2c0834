// Online safety monitor for served controllers.
//
// The paper's verifiability argument (footnote 1) certifies the distilled
// student κ* only inside a verified region — the control-invariant set XI of
// Definition 1 (verify::invariant) or, more coarsely, a box validated by
// reachability.  A request whose state lies outside that region voids the
// certificate, so the serving runtime routes it to a trusted fallback expert
// instead: the improper-RL safety pattern (Zaki et al., "Actor-Critic based
// Improper Reinforcement Learning") of falling back on a validated base
// controller whenever the learned policy leaves its certified regime.
//
// Observation uncertainty composes soundly: if the observed state may be off
// by up to `margin` in the inf-norm, certify only states whose whole
// ±margin box lies in the certified region, and bound the action drift via
// the controller's certified Lipschitz constant (action_deviation_bound).
//
// The invariant mode holds nothing but a verify::InvariantIndex, the one
// membership check over the verifier's cells: every cell whose closed box
// meets the ±margin box must be a member, located with the same
// slice_face faces the verifier built the cells from, so the verdict is
// exact at every float boundary (a state on a face needs both cells).
//
// Thread-safety: a SafetyMonitor is immutable after construction (the
// factories return it by value; certified() is const over const state, and
// copies share the immutable index), so callers and dispatcher batch
// workers call certified() concurrently with no lock — which is why
// registration hands the monitor to the registry by value rather than
// sharing a mutable reference with the caller.
#pragma once

#include <memory>

#include "control/controller.h"
#include "la/vec.h"
#include "sys/system.h"
#include "verify/invariant.h"

namespace cocktail::serve {

class SafetyMonitor {
 public:
  /// Default-constructed monitor certifies nothing: every request falls
  /// back.  The safe default for a controller without a certificate.
  SafetyMonitor() = default;

  /// Certifies every state (pure-throughput serving and benches).
  [[nodiscard]] static SafetyMonitor trust_all();

  /// Certifies states at least `margin` inside `box` on every dimension
  /// (unbounded dimensions always pass).  `margin` is the inf-norm bound on
  /// observation error the deployment assumes.
  [[nodiscard]] static SafetyMonitor inside_box(sys::Box box,
                                                double margin = 0.0);

  /// Certifies states whose surrounding ±margin box lies entirely in the
  /// computed invariant set: every grid cell whose closed box meets the
  /// ±margin box must be a member (not just the corners — a wide margin
  /// can straddle interior cells), so a state on a cell face needs both
  /// cells (verify::InvariantIndex::covers).  Throws std::invalid_argument
  /// on a negative margin and wherever the InvariantIndex constructor
  /// does, an incomplete result included.
  [[nodiscard]] static SafetyMonitor inside_invariant(
      const verify::InvariantResult& result, sys::Box domain,
      double margin = 0.0);

  /// True when serving `state` is covered by the certificate.  A state of
  /// the wrong dimension is never certified, and neither is a state with
  /// any non-finite (NaN/Inf) component — in every mode, including
  /// trust_all: a corrupted observation always routes to the fallback.
  [[nodiscard]] bool certified(const la::Vec& state) const;

  /// Sound bound on the served action's drift under observation uncertainty
  /// ||δ||_inf <= epsilon_inf, from the controller's certified Lipschitz
  /// bound L:  ||κ(s+δ) − κ(s)||_2  <=  L · sqrt(d) · epsilon_inf.
  /// Negative when the controller carries no certificate (Table I's "-").
  [[nodiscard]] static double action_deviation_bound(
      const ctrl::Controller& controller, double epsilon_inf);

 private:
  enum class Mode { kNone, kAll, kBox, kInvariant };

  Mode mode_ = Mode::kNone;
  sys::Box box_;  ///< kBox only: the certified box.
  double margin_ = 0.0;
  /// kInvariant only: the member index, built once at registration and
  /// shared by copies of the monitor.
  std::shared_ptr<const verify::InvariantIndex> invariant_;
};

}  // namespace cocktail::serve
