// Shared pieces of the end-to-end benchmark: command line, round timing,
// statistics, the run record (metrics, output checks, host metadata) and
// the call-timing wrappers the traced run passes into the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attack/perturbation.h"
#include "control/controller.h"
#include "sys/system.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Process CPU time in seconds (all threads).
[[nodiscard]] double process_cpu_seconds();

/// Host-speed probe: the calling thread's CPU seconds for a fixed piece of
/// work written here, not in the library — 40,000 forward passes of a
/// 2-16-16-1 tanh network that allocates its layers, like the library's
/// small-network code.  On a shared VM the same CPU work takes up to 1.6
/// times as long when neighbours load the host; the probe slows with it,
/// and no library change can move it.
[[nodiscard]] double probe_cpu_seconds();
/// About the probe's fastest CPU time on the host the bounds were set on (a
/// 4-vCPU Intel Xeon VM); scaled timings are in seconds at that speed.
inline constexpr double kProbeReferenceS = 0.02;
/// Factor that converts CPU seconds measured between two probes to
/// seconds at the reference speed.
[[nodiscard]] inline double speed_scale(double probe_before,
                                        double probe_after) {
  return 2.0 * kProbeReferenceS / (probe_before + probe_after);
}
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int nproc();
/// Live threads of this process, from /proc/self/status (0 if unreadable).
[[nodiscard]] int live_threads();
/// FNV-1a over bytes, for output fingerprints.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 1469598103934665603ULL);

/// Runs `round` repeatedly, until `budget_s` has passed and at least
/// `min_rounds` ran.  Each round records its own measurements.
void run_rounds(int min_rounds, double budget_s,
                const std::function<void()>& round);

/// One run's record: named metrics, output checks and host metadata.
class Record {
 public:
  /// A reported metric with the number of samples behind it.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A diagnostic number kept in the full record only.
  void info(const std::string& name, double value);
  void info_text(const std::string& name, const std::string& text);
  /// An output check; a failed one fails the run.
  void check(bool ok, const std::string& what);
  /// Operations attempted / failed (the result line's tallies).
  void count_attempted(std::uint64_t n) { attempted_ += n; }
  void count_failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return failed_checks_.empty(); }

  /// Adds host metadata (nproc, CPU, compiler, flags, SIMD/BLAS, load
  /// average, and the steal share since `ticks_at_start`, a cpu_ticks()).
  void add_host(const std::vector<std::uint64_t>& ticks_at_start);
  /// The first 8 fields of /proc/stat's "cpu" line (user .. steal).
  [[nodiscard]] static std::vector<std::uint64_t> cpu_ticks();

  /// The full record as one JSON line.
  [[nodiscard]] std::string record_json(const std::string& workload,
                                        std::uint64_t seed, bool trace) const;
  /// The result line: correct / attempted / failed / metrics.
  [[nodiscard]] std::string result_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, double> info_;
  std::map<std::string, std::string> text_;
  std::vector<std::string> failed_checks_;
  std::size_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- traced run: call-timing wrappers -------------------------------------

/// Calls and busy nanoseconds of one wrapped interface, safe to bump from
/// the library's worker threads.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  void add(Clock::time_point start) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count()),
                 std::memory_order_relaxed);
  }
  void reset() {
    calls.store(0, std::memory_order_relaxed);
    ns.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return 1e-9 * static_cast<double>(ns.load(std::memory_order_relaxed));
  }
};

/// A sys::System that times every step() of the wrapped plant and samples
/// the process's live thread count.
class TracedSystem final : public cocktail::sys::System {
 public:
  TracedSystem(cocktail::sys::SystemPtr inner, CallStats& steps,
               std::atomic<int>& max_threads)
      : inner_(std::move(inner)), steps_(steps), max_threads_(max_threads) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t state_dim() const override {
    return inner_->state_dim();
  }
  [[nodiscard]] std::size_t control_dim() const override {
    return inner_->control_dim();
  }
  [[nodiscard]] std::size_t disturbance_dim() const override {
    return inner_->disturbance_dim();
  }
  [[nodiscard]] cocktail::la::Vec step(
      const cocktail::la::Vec& s, const cocktail::la::Vec& u,
      const cocktail::la::Vec& omega) const override;
  [[nodiscard]] cocktail::sys::Box safe_region() const override {
    return inner_->safe_region();
  }
  [[nodiscard]] cocktail::sys::Box initial_set() const override {
    return inner_->initial_set();
  }
  [[nodiscard]] cocktail::sys::Box control_bounds() const override {
    return inner_->control_bounds();
  }
  [[nodiscard]] cocktail::sys::Box disturbance_bounds() const override {
    return inner_->disturbance_bounds();
  }
  [[nodiscard]] cocktail::sys::Box sampling_region() const override {
    return inner_->sampling_region();
  }
  [[nodiscard]] int horizon() const override { return inner_->horizon(); }
  [[nodiscard]] double dt() const override { return inner_->dt(); }
  [[nodiscard]] bool has_linearization() const override {
    return inner_->has_linearization();
  }
  void linearize(cocktail::la::Matrix& a,
                 cocktail::la::Matrix& b) const override {
    inner_->linearize(a, b);
  }

 private:
  cocktail::sys::SystemPtr inner_;
  CallStats& steps_;
  std::atomic<int>& max_threads_;
};

/// A ctrl::Controller that times every act() of the wrapped controller.
class TracedController final : public cocktail::ctrl::Controller {
 public:
  TracedController(cocktail::ctrl::ControllerPtr inner, CallStats& acts)
      : inner_(std::move(inner)), acts_(acts) {}

  [[nodiscard]] cocktail::la::Vec act(
      const cocktail::la::Vec& s) const override {
    const auto start = Clock::now();
    cocktail::la::Vec u = inner_->act(s);
    acts_.add(start);
    return u;
  }
  [[nodiscard]] std::size_t state_dim() const override {
    return inner_->state_dim();
  }
  [[nodiscard]] std::size_t control_dim() const override {
    return inner_->control_dim();
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] bool differentiable() const override {
    return inner_->differentiable();
  }
  [[nodiscard]] cocktail::la::Matrix input_jacobian(
      const cocktail::la::Vec& s) const override {
    return inner_->input_jacobian(s);
  }
  [[nodiscard]] double lipschitz_bound() const override {
    return inner_->lipschitz_bound();
  }

 private:
  cocktail::ctrl::ControllerPtr inner_;
  CallStats& acts_;
};

/// An attack::PerturbationModel that times every perturb() call.
class TracedPerturbation final : public cocktail::attack::PerturbationModel {
 public:
  TracedPerturbation(cocktail::attack::PerturbationPtr inner, CallStats& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  [[nodiscard]] cocktail::la::Vec perturb(
      const cocktail::la::Vec& state,
      const cocktail::ctrl::Controller& controller,
      cocktail::util::Rng& rng) const override {
    const auto start = Clock::now();
    cocktail::la::Vec delta = inner_->perturb(state, controller, rng);
    calls_.add(start);
    return delta;
  }
  [[nodiscard]] std::string describe() const override {
    return inner_->describe();
  }

 private:
  cocktail::attack::PerturbationPtr inner_;
  CallStats& calls_;
};

}  // namespace e2e
