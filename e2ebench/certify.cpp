// certify: the paper's Property 3, the time to certify a controller — the
// invariant set of a robust (κ*) and a direct (κD) Van der Pol student at
// the Fig 3 settings, and the 15-step reachable set of a 3D-system student
// at the Fig 4 settings.
#include <cmath>

#include "control/polynomial_controller.h"
#include "stages.h"
#include "sys/threed.h"
#include "util/rng.h"
#include "verify/nn_abstraction.h"
#include "verify/reach.h"

namespace e2e {

using namespace cocktail;

namespace {

verify::ReachConfig fig4_config() {
  verify::ReachConfig config;
  config.steps = 15;
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.max_box_width = 0.02;
  config.merge_threshold = 2048;
  config.budget.max_nn_evaluations = 40'000'000;
  config.budget.max_partitions = 300'000;
  config.num_workers = kWorkers;
  return config;
}

/// Everything a certify round produces that must repeat exactly.
struct Outcome {
  verify::InvariantResult kstar, kd;
  verify::ReachResult reach;
  double invariant_s = 0.0;
  double invariant_cpu_s = 0.0;           ///< scaled by the probes around it.
  double invariant_unscaled_cpu_s = 0.0;
  double reach_s = 0.0;
  double reach_cpu_s = 0.0;
};

std::uint64_t members_hash(const verify::InvariantResult& r) {
  return fnv1a(r.member.data(), r.member.size());
}

std::size_t frontier_boxes(const verify::ReachResult& r) {
  std::size_t boxes = 0;
  for (const auto& layer : r.layers) boxes += layer.size();
  return boxes;
}

bool same_counts(const Outcome& a, const Outcome& b) {
  const auto same_inv = [](const verify::InvariantResult& x,
                           const verify::InvariantResult& y) {
    return x.completed == y.completed && x.iterations == y.iterations &&
           x.nn_evaluations == y.nn_evaluations &&
           x.partitions == y.partitions &&
           x.volume_fraction == y.volume_fraction &&
           members_hash(x) == members_hash(y);
  };
  return same_inv(a.kstar, b.kstar) && same_inv(a.kd, b.kd) &&
         a.reach.completed == b.reach.completed &&
         a.reach.safe == b.reach.safe &&
         a.reach.nn_evaluations == b.reach.nn_evaluations &&
         a.reach.partitions == b.reach.partitions &&
         frontier_boxes(a.reach) == frontier_boxes(b.reach);
}

/// Median per-call nanoseconds of `call` over `reps` passes of `n` calls.
template <class Call>
double per_call_ns(std::size_t n, int reps, Call&& call) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) call(i);
    ns.push_back(1e9 * seconds_between(start, Clock::now()) /
                 static_cast<double>(n));
  }
  return median(ns);
}

}  // namespace

verify::InvariantConfig fig3_config() {
  verify::InvariantConfig config;
  config.grid = {80, 80};
  config.abstraction.epsilon_target = 0.4;
  config.abstraction.max_degree = 10;
  config.abstraction.max_partition_depth = 10;
  config.budget.max_nn_evaluations = 400'000'000;
  config.budget.max_partitions = 10'000'000;
  return config;
}

core::DistillConfig subject_distill_config() {
  core::DistillConfig config;
  config.uniform_samples = 1000;
  config.teacher_rollouts = 10;
  config.student_hidden = {16, 16};
  config.epochs = 40;
  config.num_workers = 1;  // serial: set-up time is a result metric
  config.seed = 3;
  return config;
}

ctrl::LqrController vdp_teacher(const sys::VanDerPol& vdp) {
  return ctrl::LqrController::synthesize(vdp, 10.0, 0.1, "lqr");
}

std::shared_ptr<const ctrl::NnController> distill_vdp_kstar(
    const sys::VanDerPol& vdp) {
  core::DistillConfig config = subject_distill_config();
  config.lambda_l2 = 1e-2;
  return core::distill(vdp, vdp_teacher(vdp), config, "kstar").student;
}

struct CertifyStage::Impl {
  std::shared_ptr<const sys::VanDerPol> vdp;
  std::shared_ptr<const sys::ThreeD> threed;
  std::shared_ptr<const ctrl::NnController> kstar, kd, threed_student;
  verify::IBox reach_initial;
  std::vector<Outcome> outcomes;  ///< every round so far, warm-up first.

  Outcome round() const {
    Outcome out;
    // The invariant pass is serial, so the host-speed probe, which runs on
    // the same thread just before and after it, tracks the speed it ran
    // at.  Reach runs on kWorkers threads and is not scaled.
    const double probe0 = probe_cpu_seconds();
    const auto start = Clock::now();
    const double cpu0 = process_cpu_seconds();
    out.kstar = verify::InvariantSetComputer(vdp, *kstar, fig3_config()).compute();
    out.kd = verify::InvariantSetComputer(vdp, *kd, fig3_config()).compute();
    const auto mid = Clock::now();
    const double cpu1 = process_cpu_seconds();
    out.invariant_unscaled_cpu_s = cpu1 - cpu0;
    out.invariant_cpu_s = out.invariant_unscaled_cpu_s *
                          speed_scale(probe0, probe_cpu_seconds());
    const auto reach_start = Clock::now();
    const double cpu2 = process_cpu_seconds();
    out.reach = verify::ReachabilityAnalyzer(threed, *threed_student,
                                             fig4_config())
                    .analyze(reach_initial);
    out.reach_cpu_s = process_cpu_seconds() - cpu2;
    out.invariant_s = seconds_between(start, mid);
    out.reach_s = seconds_between(reach_start, Clock::now());
    return out;
  }
};

CertifyStage::CertifyStage(std::uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.vdp = std::make_shared<sys::VanDerPol>();
  s.threed = std::make_shared<sys::ThreeD>();

  // The verification subjects are fixed networks: their Lipschitz bounds
  // set the certification cost (a few units of L move it by whole
  // multiples), so they do not vary with the seed.  The seed shifts the
  // reachability start box.
  s.kstar = distill_vdp_kstar(*s.vdp);
  // κD: direct distillation (p = 0, λ = 0) into one hidden layer of 6, so
  // its invariant pass takes about 0.4 s instead of ten (L ≈ 24, twice
  // κ*'s, and about six times κ*'s NN evaluations).
  const ctrl::LqrController teacher = vdp_teacher(*s.vdp);
  core::DistillConfig direct = subject_distill_config().direct();
  direct.student_hidden = {6};
  s.kd = core::distill(*s.vdp, teacher, direct, "kD").student;

  const auto poly = ctrl::PolynomialController::linear_feedback(
      ctrl::LqrController::synthesize(*s.threed).gain(), "poly");
  s.threed_student = core::distill(*s.threed, poly, subject_distill_config(),
                                   "kstar-3d")
                         .student;

  // The Fig 4 corner start box, shifted by up to a tenth of its width.
  util::Rng rng(util::derive_seed(seed, 14));
  const double dx = rng.uniform(-0.0005, 0.0005);
  const double dy = rng.uniform(-0.0005, 0.0005);
  s.reach_initial = verify::make_box({-0.11 + dx, 0.205 + dy, 0.1},
                                     {-0.105 + dx, 0.21 + dy, 0.11});
}

CertifyStage::~CertifyStage() = default;

void CertifyStage::round() { impl_->outcomes.push_back(impl_->round()); }

void CertifyStage::report(Record& record) const {
  const std::vector<Outcome>& outcomes = impl_->outcomes;
  std::vector<double> invariant_s, invariant_cpu_s, unscaled_cpu_s, reach_s,
      reach_cpu_s;
  bool same = true;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    same = same && same_counts(o, outcomes[0]);
    if (i == 0) continue;  // the warm-up round
    invariant_s.push_back(o.invariant_s);
    invariant_cpu_s.push_back(o.invariant_cpu_s);
    unscaled_cpu_s.push_back(o.invariant_unscaled_cpu_s);
    reach_s.push_back(o.reach_s);
    reach_cpu_s.push_back(o.reach_cpu_s);
  }
  const Outcome& first = outcomes[0];
  record.check(first.kstar.completed && first.kd.completed,
               "certify: both invariant sets complete");
  record.check(first.reach.completed, "certify: reachability completes");
  record.check(same, "certify: every verify count and XI repeat exactly");
  record.count_attempted(3 * outcomes.size());
  // Results are CPU seconds, the invariant pass's scaled to the reference
  // speed; the wall times and the unscaled time stay in the record.  On a
  // shared VM the hypervisor's steal lands in wall time only, and reach's
  // kWorkers threads meet at every wave, so one stolen vCPU stalls them
  // all (README.md, "Dropped metrics").
  record.metric("invariant_cpu_s", median(invariant_cpu_s), "s",
                invariant_cpu_s.size());
  record.metric("reach_cpu_s", median(reach_cpu_s), "s", reach_cpu_s.size());
  record.info("certify.invariant_wall_s", median(invariant_s));
  record.info("certify.invariant_unscaled_cpu_s", median(unscaled_cpu_s));
  record.info("certify.reach_wall_s", median(reach_s));
  record.metric("xi_volume_fraction", first.kstar.volume_fraction, "share",
                outcomes.size());
  record.info("certify.kstar_lipschitz", impl_->kstar->lipschitz_bound());
  record.info("certify.kd_lipschitz", impl_->kd->lipschitz_bound());
  record.info("certify.threed_lipschitz",
              impl_->threed_student->lipschitz_bound());
  record.info("certify.kd_xi_volume_fraction", first.kd.volume_fraction);
  record.info("certify.reach_safe", first.reach.safe ? 1.0 : 0.0);
}

void CertifyStage::trace(Record& record, double /*seconds*/) const {
  const Impl& s = *impl_;
  const Outcome ref = s.round();
  // verify takes no wrappers (its abstractions dynamic_cast to the concrete
  // plant and network types), so its layers are read from the result
  // counters and from timed replays of the calls it makes.
  const sys::Box domain = s.vdp->safe_region();
  std::vector<la::Vec> centers;
  for (std::size_t i = 0; i < ref.kd.cell_count(); ++i)
    centers.push_back(verify::box_mid(ref.kd.cell_box(domain, i)));
  la::Matrix batch(centers.size(), 2);
  for (std::size_t i = 0; i < centers.size(); ++i)
    for (std::size_t j = 0; j < 2; ++j) batch(i, j) = centers[i][j];

  const nn::Mlp& net = s.kd->net();
  double sink = 0.0;
  const double forward_ns = per_call_ns(centers.size(), 5, [&](std::size_t i) {
    sink += net.forward(centers[i])[0];
  });
  std::vector<double> batch_ns;
  for (int r = 0; r < 5; ++r) {
    const auto start = Clock::now();
    sink += net.forward_batch(batch)(0, 0);
    batch_ns.push_back(1e9 * seconds_between(start, Clock::now()) /
                       static_cast<double>(centers.size()));
  }
  // Each subject's act() on the same states: κ* (16×16) and κD (6) differ
  // in forward cost, so each weights its own evaluations.
  const auto act_ns = [&](const ctrl::NnController& subject) {
    return per_call_ns(centers.size(), 3, [&](std::size_t i) {
      sink += subject.act(centers[i])[0];
    });
  };
  const double kd_act_ns = act_ns(*s.kd);
  const double kstar_act_ns = act_ns(*s.kstar);

  // Enclosure replay on every 8th κD cell, scaled to the whole grid.
  const verify::NnAbstraction abstraction(*s.kd, fig3_config().abstraction);
  const verify::IBox u_bounds = verify::make_box(
      s.vdp->control_bounds().lo, s.vdp->control_bounds().hi);
  verify::VerificationBudget unlimited;
  unlimited.max_nn_evaluations = 1L << 60;
  unlimited.max_partitions = 1L << 60;
  const std::size_t stride = 8;
  const auto enclose_start = Clock::now();
  std::size_t enclosed = 0;
  for (std::size_t i = 0; i < ref.kd.cell_count(); i += stride, ++enclosed)
    sink += abstraction.enclose(ref.kd.cell_box(domain, i), u_bounds, unlimited)
                .epsilon;
  const double enclose_us =
      1e6 * seconds_between(enclose_start, Clock::now()) /
      static_cast<double>(enclosed);

  const auto& last = ref.reach.layers.back();
  const auto pave_start = Clock::now();
  const std::vector<verify::IBox> paved =
      verify::pave_boxes(last, fig4_config().max_box_width);
  const double pave_us = 1e6 * seconds_between(pave_start, Clock::now());
  record.check(!paved.empty() && std::isfinite(sink),
               "certify: replays produce finite output");

  // A second round must reproduce the first exactly.  Neither is traced,
  // so tracing adds no overhead to the certify metrics.
  const Outcome again = s.round();
  record.check(same_counts(ref, again),
               "certify: traced run reproduces every verify count");
  record.count_attempted(6);

  const double evals =
      static_cast<double>(ref.kstar.nn_evaluations + ref.kd.nn_evaluations);
  record.metric("nn.forward_ns", forward_ns, "ns", 5);
  record.metric("nn.forward_batch_row_ns", median(batch_ns), "ns", 5);
  record.metric("verify.invariant_nn_evals", evals, "count", 1);
  record.metric("verify.invariant_partitions",
                static_cast<double>(ref.kstar.partitions + ref.kd.partitions),
                "count", 1);
  record.metric("verify.invariant_iterations",
                static_cast<double>(ref.kstar.iterations + ref.kd.iterations),
                "count", 1);
  // Computed, not measured: each subject's evaluations × its replayed act()
  // time, over the pass's wall time.
  record.metric("verify.nn_share",
                (static_cast<double>(ref.kstar.nn_evaluations) * kstar_act_ns +
                 static_cast<double>(ref.kd.nn_evaluations) * kd_act_ns) *
                    1e-9 / again.invariant_s,
                "share", 1);
  record.metric("verify.enclose_us", enclose_us, "us", enclosed);
  record.metric("verify.reach_nn_evals",
                static_cast<double>(ref.reach.nn_evaluations), "count", 1);
  record.metric("verify.reach_partitions",
                static_cast<double>(ref.reach.partitions), "count", 1);
  record.metric("verify.reach_frontier_boxes",
                static_cast<double>(frontier_boxes(ref.reach)), "count", 1);
  record.metric("verify.reach_cpu_util", ref.reach_cpu_s / ref.reach_s,
                "cpu/wall", 1);
  record.metric("verify.pave_us", pave_us, "us", 1);
  // Share of the invariant pass (κ* and κD) that κD's per-cell enclosures
  // account for, from the strided replay scaled to every cell.
  record.metric("share.invariant_pass",
                enclose_us * 1e-6 * static_cast<double>(ref.kd.cell_count()) /
                    again.invariant_s,
                "share", 1);
  record.info("certify.kstar_act_ns", kstar_act_ns);
  record.info("certify.kd_act_ns", kd_act_ns);
}

}  // namespace e2e
