// Flagship scenario: the full Cocktail pipeline on the Van der Pol
// oscillator, mirroring the paper's presentation for one system —
//
//   * Table-I-style comparison (κ1, κ2, AS, AW, κD, κ*),
//   * robustness under an optimized FGSM attack (Table II),
//   * formal verification: control-invariant set of the student (Fig 3),
//     including the paper's "simulate 1500 initial states inside XI and
//     confirm all stay safe" sanity check.
//
// Trained artifacts are cached in COCKTAIL_MODEL_DIR (default
// ./cocktail_models), so the first run trains (~ a few minutes) and
// subsequent runs are instant.
#include <cstdio>

#include "attack/fgsm.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/rollout.h"
#include "sys/registry.h"
#include "util/logging.h"
#include "verify/invariant.h"

int main() {
  using namespace cocktail;
  util::set_log_level(util::LogLevel::kInfo);

  sys::SystemPtr system = sys::make_system("vanderpol");
  const auto config = core::default_pipeline_config("vanderpol");
  const auto artifacts = core::run_pipeline(system, config);

  // --- Table-I-style comparison ---
  core::EvalConfig eval;
  eval.num_initial_states = 500;
  std::printf("\n=== Van der Pol oscillator: baseline comparison ===\n");
  std::printf("%-6s %10s %12s %12s\n", "ctrl", "Sr (%)", "energy", "L");
  for (const auto& [label, controller] : artifacts.table_row_controllers()) {
    const auto r = core::evaluate(*system, *controller, eval);
    const double lip = controller->lipschitz_bound();
    if (lip >= 0.0)
      std::printf("%-6s %10.1f %12s %12.2f\n", label.c_str(),
                  100.0 * r.safe_rate,
                  core::format_energy(r.mean_energy).c_str(), lip);
    else
      std::printf("%-6s %10.1f %12s %12s\n", label.c_str(),
                  100.0 * r.safe_rate,
                  core::format_energy(r.mean_energy).c_str(), "-");
  }

  // --- Robustness under optimized attack (Table II flavour) ---
  std::printf("\n=== Under FGSM attack (12%% of state bound) ===\n");
  core::EvalConfig attacked = eval;
  attacked.perturbation = std::make_shared<attack::FgsmAttack>(
      attack::perturbation_bound(*system, 0.12));
  for (const auto& label : {std::string("kD"), std::string("k*")}) {
    const auto& controller = label == "kD" ? artifacts.direct_student
                                           : artifacts.robust_student;
    const auto r = core::evaluate(*system, *controller, attacked);
    std::printf("%-6s Sr = %5.1f%%   energy = %8s\n", label.c_str(),
                100.0 * r.safe_rate,
                core::format_energy(r.mean_energy).c_str());
  }

  // --- Formal verification: invariant set of the robust student ---
  std::printf("\n=== Invariant set of k* (grid fixed point) ===\n");
  verify::InvariantConfig inv;
  inv.grid = {80, 80};
  inv.abstraction.epsilon_target = 0.4;
  const verify::InvariantSetComputer computer(
      system, *artifacts.robust_student, inv);
  const auto result = computer.compute();
  if (!result.completed) {
    std::printf("verification failed: %s\n", result.failure.c_str());
    return 1;
  }
  std::printf("certified %.1f%% of X in %.2f s (%ld NN evaluations)\n",
              100.0 * result.volume_fraction, result.seconds,
              result.nn_evaluations);

  // The paper's closing check: simulate many initial states inside XI and
  // confirm every trajectory stays safe.
  const sys::Box domain = system->safe_region();
  const verify::InvariantIndex xi(result, domain);
  util::Rng rng(99);
  int simulated = 0, safe = 0;
  while (simulated < 1500) {
    const la::Vec s0 = domain.sample(rng);
    if (!xi.covers(s0, 0.0)) continue;
    ++simulated;
    core::RolloutConfig rollout_config;
    rollout_config.horizon = 300;
    const auto r = core::rollout(*system, *artifacts.robust_student, s0,
                                 nullptr, rng, rollout_config);
    safe += r.safe;
  }
  std::printf("simulated %d initial states inside XI: %d safe\n", simulated,
              safe);
  return safe == simulated ? 0 : 1;
}
