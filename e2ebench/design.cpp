// design: one round of the Cocktail design flow on Van der Pol — adaptive
// mixing (PPO) of two model-based experts, robust distillation of κ*, and
// κ*'s safe-control rate under an FGSM attack.
#include <sstream>

#include "attack/fgsm.h"
#include "control/lqr_controller.h"
#include "core/distiller.h"
#include "core/envs.h"
#include "core/metrics.h"
#include "core/mixing.h"
#include "rl/ppo.h"
#include "stages.h"
#include "sys/vanderpol.h"
#include "util/rng.h"

namespace e2e {

using namespace cocktail;

namespace {

constexpr double kAttackFraction = 0.12;

struct Outcome {
  std::uint64_t kstar_hash = 0;
  double attacked_sr = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time, all threads.
};

std::uint64_t net_hash(const nn::Mlp& net) {
  std::ostringstream out;
  net.save(out);
  const std::string bytes = out.str();
  return fnv1a(bytes.data(), bytes.size());
}

}  // namespace

struct DesignStage::Impl {
  sys::SystemPtr system;
  std::vector<ctrl::ControllerPtr> experts;
  core::MixingConfig mixing;
  core::DistillConfig distill;
  core::EvalConfig eval;
  attack::PerturbationPtr attack;
  std::vector<Outcome> outcomes;  ///< every round so far, warm-up first.

  Outcome round(const sys::SystemPtr& plant,
                const std::vector<ctrl::ControllerPtr>& mixed_experts,
                const attack::PerturbationPtr& perturbation) const {
    Outcome out;
    const auto start = Clock::now();
    const double cpu0 = process_cpu_seconds();
    const core::MixingResult mix =
        core::train_adaptive_mixing(plant, mixed_experts, mixing);
    const core::DistillResult student =
        core::distill(*plant, *mix.controller, distill);
    core::EvalConfig attacked = eval;
    attacked.perturbation = perturbation;
    const core::EvalResult result =
        core::evaluate(*plant, *student.student, attacked);
    out.cpu_s = process_cpu_seconds() - cpu0;
    out.wall_s = seconds_between(start, Clock::now());
    out.kstar_hash = net_hash(student.student->net());
    out.attacked_sr = result.safe_rate;
    return out;
  }
};

DesignStage::DesignStage(std::uint64_t seed) : impl_(std::make_unique<Impl>()) {
  util::Rng rng(util::derive_seed(seed, 1));
  auto vdp = std::make_shared<sys::VanDerPol>();
  impl_->system = vdp;
  // Two model-based experts (the paper allows them): an aggressive and a
  // gentle LQR gain, with weights drawn from the seed.
  impl_->experts = {
      std::make_shared<ctrl::LqrController>(ctrl::LqrController::synthesize(
          *vdp, rng.uniform(8.0, 12.0), rng.uniform(0.08, 0.12), "lqr-fast")),
      std::make_shared<ctrl::LqrController>(ctrl::LqrController::synthesize(
          *vdp, rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2), "lqr-soft"))};

  // Sized so a round takes about 1.5 s: 12 PPO iterations of 1500 steps
  // with the library's 64×64 networks, but 2 update epochs instead of 8
  // (the updates are most of PPO's time), and a 16×16 student distilled
  // for 20 epochs from half the default data.  Sr(κ*) was 0.96-0.996 on
  // all of 76 seeds tried.  With 6 or 9 iterations (4 update epochs) the
  // mixing policy stayed unsafe on about 1 seed in 6, and Sr(κ*) fell to
  // 0.5-0.8 there; more update epochs per iteration did not help.
  core::MixingConfig& mixing = impl_->mixing;
  mixing.ppo.iterations = 12;
  mixing.ppo.steps_per_iteration = 1500;
  mixing.ppo.update_epochs = 2;
  mixing.ppo.num_workers = kWorkers;
  mixing.ppo.num_env_shards = kWorkers;
  mixing.ppo.seed = util::derive_seed(seed, 2);

  core::DistillConfig& distill = impl_->distill;
  distill.uniform_samples = 2000;
  distill.teacher_rollouts = 25;
  distill.student_hidden = {16, 16};
  distill.epochs = 20;
  distill.num_workers = kWorkers;
  distill.seed = util::derive_seed(seed, 3);

  core::EvalConfig& eval = impl_->eval;
  eval.num_initial_states = 500;
  eval.seed = util::derive_seed(seed, 4);
  eval.num_workers = kWorkers;
  impl_->attack = std::make_shared<attack::FgsmAttack>(
      attack::perturbation_bound(*vdp, kAttackFraction));
}

DesignStage::~DesignStage() = default;

void DesignStage::round() {
  impl_->outcomes.push_back(
      impl_->round(impl_->system, impl_->experts, impl_->attack));
}

void DesignStage::report(Record& record) const {
  const std::vector<Outcome>& outcomes = impl_->outcomes;
  bool same = true;
  std::vector<double> wall_s, cpu_s;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    same = same && o.kstar_hash == outcomes[0].kstar_hash &&
           o.attacked_sr == outcomes[0].attacked_sr;
    if (i == 0) continue;  // the warm-up round
    wall_s.push_back(o.wall_s);
    cpu_s.push_back(o.cpu_s);
  }
  record.check(same, "design: kstar weights and attacked Sr repeat exactly");
  record.count_attempted(outcomes.size());
  // The round runs on kWorkers threads that meet at every PPO update and
  // rollout batch, so on a shared VM one stolen vCPU stalls the rest.  The
  // CPU time is the result; the wall time stays in the record.  It is not
  // scaled by the host-speed probe: the probe runs on one thread, and
  // scaling moved this metric's spread over seeds both up and down.
  record.metric("design_cpu_s", median(cpu_s), "s", cpu_s.size());
  record.info("design.wall_s", median(wall_s));
  record.metric("kstar_attacked_sr", outcomes[0].attacked_sr, "share",
                outcomes.size());
  record.info("design.kstar_hash_low32",
              static_cast<double>(outcomes[0].kstar_hash & 0xffffffffULL));
}

void DesignStage::trace(Record& record, double seconds) const {
  const Impl& s = *impl_;
  // Untraced reference rounds first: the traced rounds must reproduce them.
  std::vector<double> plain_times;
  Outcome plain;
  run_rounds(1, seconds / 2, [&] {
    plain = s.round(s.system, s.experts, s.attack);
    plain_times.push_back(plain.wall_s);
  });

  CallStats steps, expert_acts, fgsm;
  std::atomic<int> max_threads{0};
  const auto plant = std::make_shared<TracedSystem>(s.system, steps, max_threads);
  std::vector<ctrl::ControllerPtr> experts;
  for (const auto& expert : s.experts)
    experts.push_back(std::make_shared<TracedController>(expert, expert_acts));
  const auto attack = std::make_shared<TracedPerturbation>(s.attack, fgsm);

  // One traced round, split at the stage boundaries the library exposes.
  const double cpu0 = process_cpu_seconds();
  auto start = Clock::now();
  const core::MixingResult mix =
      core::train_adaptive_mixing(plant, experts, s.mixing);
  const double mixing_s = seconds_between(start, Clock::now());
  const double mixing_cpu_s = process_cpu_seconds() - cpu0;
  const double mixing_step_s = steps.seconds();
  const double mixing_expert_s = expert_acts.seconds();

  start = Clock::now();
  const core::DistillResult student = core::distill(*plant, *mix.controller,
                                                    s.distill);
  const double distill_s = seconds_between(start, Clock::now());

  start = Clock::now();
  core::EvalConfig attacked = s.eval;
  attacked.perturbation = attack;
  const core::EvalResult result =
      core::evaluate(*plant, *student.student, attacked);
  const double eval_s = seconds_between(start, Clock::now());
  const double traced_cpu_s = process_cpu_seconds() - cpu0;
  const std::uint64_t plant_steps = steps.calls.load();
  const double step_s = steps.seconds();
  const std::uint64_t expert_calls = expert_acts.calls.load();
  const double expert_s = expert_acts.seconds();

  record.check(net_hash(student.student->net()) == plain.kstar_hash &&
                   result.safe_rate == plain.attacked_sr,
               "design: traced round reproduces kstar and attacked Sr");

  // Replays: the dataset build alone, and PPO alone on the same env (its
  // collection is independent of the checkpoint evaluations between chunks,
  // so the replay steps the plant exactly as the round's PPO did).
  start = Clock::now();
  const core::DistillDataset dataset =
      core::build_distill_dataset(*s.system, *mix.controller, s.distill);
  const double dataset_s = seconds_between(start, Clock::now());
  record.check(dataset.size() > 0, "design: distillation dataset is non-empty");

  steps.reset();
  core::MixingEnv env(plant, s.experts, s.mixing.weight_bound,
                      s.mixing.reward);
  rl::PpoGaussian ppo(s.mixing.ppo);
  ppo.initialize(env);
  (void)ppo.run_iterations(env, s.mixing.ppo.iterations);
  const auto ppo_steps = static_cast<double>(steps.calls.load());
  const double kept = static_cast<double>(s.mixing.ppo.iterations) *
                      s.mixing.ppo.steps_per_iteration;

  // CPU seconds over all threads, like the busy times it subtracts: PPO's
  // own work plus the policy forward passes of the checkpoint scoring.
  record.metric("rl.self_s", mixing_cpu_s - mixing_step_s - mixing_expert_s,
                "s", 1);
  record.metric("rl.ppo_steps", ppo_steps, "count", 1);
  record.metric("rl.collect_discarded_steps", ppo_steps - kept, "count", 1);
  record.metric("core.mixing_s", mixing_s, "s", 1);
  record.metric("core.distill_dataset_s", dataset_s, "s", 1);
  record.metric("core.distill_sgd_s", distill_s - dataset_s, "s", 1);
  record.metric("core.eval_s", eval_s, "s", 1);
  record.metric("control.expert_act_calls", static_cast<double>(expert_calls),
                "count", 1);
  record.metric("control.expert_act_s", expert_s, "s", 1);
  record.metric("sys.plant_steps", static_cast<double>(plant_steps), "count", 1);
  record.metric("sys.step_s", step_s, "s", 1);
  record.metric("attack.fgsm_calls", static_cast<double>(fgsm.calls.load()),
                "count", 1);
  record.metric("attack.fgsm_s", fgsm.seconds(), "s", 1);
  // Share of the untraced design round the traced core stages (mixing,
  // distillation, attacked evaluation) account for.
  const double traced_round_s = mixing_s + distill_s + eval_s;
  record.metric("share.design_round", traced_round_s / median(plain_times),
                "share", 1);
  record.info("overhead.design_cpu_s", traced_cpu_s - plain.cpu_s);
  record.info("design.threads_live_max", max_threads.load());
  // At most kWorkers + 1 threads run at once; while a checkpoint evaluation
  // runs on its own pool the PPO pool stays parked, so up to 2 kWorkers + 1
  // are alive.
  record.check(max_threads.load() <= 2 * kWorkers + 1,
               "design: live threads stay within the pinned pools");
  record.count_attempted(plain_times.size() + 1);
}

}  // namespace e2e
