// Tests for the control-invariant-set computation (Definition 1 / Fig 3):
// the certified set must actually be invariant under simulation, shrink
// for weaker controllers, and respect the budget failure mode.  The
// membership index over a computed set must agree with a brute-force scan
// of the verifier's cells, at every cell face.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "control/polynomial_controller.h"
#include "face_cases.h"
#include "sys/registry.h"
#include "sys/vanderpol.h"
#include "util/rng.h"
#include "verify/invariant.h"

namespace cocktail {
namespace {

using la::Vec;

std::shared_ptr<ctrl::PolynomialController> vdp_linear_controller(
    double control_weight) {
  const sys::VanDerPol system;
  const auto lqr = ctrl::LqrController::synthesize(system, 1.0, control_weight);
  return std::make_shared<ctrl::PolynomialController>(
      ctrl::PolynomialController::linear_feedback(lqr.gain(), "lin"));
}

verify::InvariantConfig small_config() {
  verify::InvariantConfig config;
  // 32x32 with eps=0.4 is the empirical sweet spot where an authoritative
  // LQR certifies ~80-90% of X but a weak one certifies nothing (the grid
  // cell width must be below the closed loop's one-step inward progress).
  config.grid = {32, 32};
  config.abstraction.epsilon_target = 0.4;
  return config;
}

TEST(Invariant, NonEmptyForStabilizingController) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const verify::InvariantSetComputer computer(system, *controller,
                                              small_config());
  const auto result = computer.compute();
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_GT(result.volume_fraction, 0.1);
  EXPECT_LE(result.volume_fraction, 1.0);
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Invariant, CertifiedSetIsActuallyInvariant) {
  // The defining property (Definition 1): simulate from inside XI under
  // worst-case-ish disturbances; trajectories must never leave X, ever.
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const verify::InvariantSetComputer computer(system, *controller,
                                              small_config());
  const auto result = computer.compute();
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.volume_fraction, 0.1);
  const sys::Box domain = system->safe_region();
  const verify::InvariantIndex xi(result, domain);

  util::Rng rng(3);
  int tested = 0;
  for (int attempt = 0; attempt < 3000 && tested < 40; ++attempt) {
    const Vec s0 = domain.sample(rng);
    if (!xi.covers(s0, 0.0)) continue;
    ++tested;
    Vec s = s0;
    for (int t = 0; t < 300; ++t) {
      const Vec u = system->clip_control(controller->act(s));
      s = system->step(s, u, system->sample_disturbance(rng));
      ASSERT_TRUE(system->is_safe(s))
          << "left X from certified cell, start (" << s0[0] << ", " << s0[1]
          << ") step " << t;
    }
  }
  EXPECT_GE(tested, 10);
}

TEST(Invariant, StrongerControllerYieldsLargerSet) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto strong = vdp_linear_controller(0.02);  // high authority.
  const auto weak = vdp_linear_controller(0.1);     // lower authority.
  const auto r_strong =
      verify::InvariantSetComputer(system, *strong, small_config()).compute();
  const auto r_weak =
      verify::InvariantSetComputer(system, *weak, small_config()).compute();
  ASSERT_TRUE(r_strong.completed);
  ASSERT_TRUE(r_weak.completed);
  EXPECT_GE(r_strong.volume_fraction, r_weak.volume_fraction);
}

TEST(Invariant, BudgetExhaustionReportedNotThrown) {
  auto system = std::make_shared<sys::VanDerPol>();
  nn::Mlp net = nn::Mlp::make(2, {16, 16}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 4);
  const ctrl::NnController big(std::move(net), {40.0}, "bigL");
  verify::InvariantConfig config = small_config();
  config.abstraction.epsilon_target = 0.1;
  config.abstraction.max_degree = 3;
  config.budget.max_nn_evaluations = 5'000;
  const verify::InvariantSetComputer computer(system, big, config);
  const auto result = computer.compute();
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.failure.empty());
  // An incomplete result proves nothing, so it must claim no cell.
  EXPECT_EQ(result.cell_count(), 32u * 32u);
  EXPECT_EQ(std::count_if(result.member.begin(), result.member.end(),
                          [](char m) { return m != 0; }),
            0);
}

TEST(Invariant, RejectsUnboundedDomains) {
  auto cartpole = sys::make_system("cartpole");
  const ctrl::ZeroController zero(4, 1);
  EXPECT_THROW(
      verify::InvariantSetComputer(cartpole, zero, small_config()),
      std::invalid_argument);
}

TEST(Invariant, IndexAgreesWithMembership) {
  auto system = std::make_shared<sys::VanDerPol>();
  const auto controller = vdp_linear_controller(0.05);
  const auto result =
      verify::InvariantSetComputer(system, *controller, small_config())
          .compute();
  ASSERT_TRUE(result.completed);
  const sys::Box domain = system->safe_region();
  const verify::InvariantIndex xi(result, domain);
  // Points outside the domain are never members.
  EXPECT_FALSE(xi.covers({5.0, 0.0}, 0.0));
  // Cell centers agree with the member mask.
  for (std::size_t i = 0; i < result.cell_count(); i += 37) {
    const auto box = result.cell_box(domain, i);
    const la::Vec center = verify::box_mid(box);
    EXPECT_EQ(xi.covers(center, 0.0), result.member[i] != 0);
  }
}

// --- InvariantIndex: the one membership check ------------------------------

/// Reference for InvariantIndex::covers: every cell's closed box scanned;
/// a cell meeting the ball must be a member.
bool brute_covers(const verify::InvariantResult& result,
                  const sys::Box& domain, const Vec& center, double radius) {
  if (center.size() != domain.dim() || !std::isfinite(radius) ||
      !(radius >= 0.0))
    return false;
  for (std::size_t d = 0; d < center.size(); ++d) {
    if (!std::isfinite(center[d])) return false;
    if (!(domain.lo[d] <= center[d] - radius &&
          center[d] + radius <= domain.hi[d]))
      return false;
  }
  for (std::size_t i = 0; i < result.cell_count(); ++i) {
    if (result.member[i] != 0) continue;
    const verify::IBox cell = result.cell_box(domain, i);
    bool meets = true;
    for (std::size_t d = 0; meets && d < center.size(); ++d)
      meets = cell[d].lo() <= center[d] + radius &&
              center[d] - radius <= cell[d].hi();
    if (meets) return false;
  }
  return true;
}

verify::InvariantResult random_invariant(util::Rng& rng,
                                         std::vector<int> grid,
                                         double density) {
  verify::InvariantResult result;
  result.grid = std::move(grid);
  result.completed = true;
  std::size_t total = 1;
  for (const int g : result.grid) total *= static_cast<std::size_t>(g);
  result.member.resize(total);
  for (auto& m : result.member) m = rng.uniform(0.0, 1.0) < density ? 1 : 0;
  return result;
}

/// A random query center: uniform over a slightly wider box than the
/// domain, or snapped onto a random cell face (the boundary case).
Vec random_center(util::Rng& rng, const verify::InvariantResult& result,
                  const sys::Box& domain) {
  Vec center(domain.dim());
  for (std::size_t d = 0; d < center.size(); ++d) {
    const double span = domain.hi[d] - domain.lo[d];
    center[d] = rng.uniform(domain.lo[d] - 0.1 * span,
                            domain.hi[d] + 0.1 * span);
    if (rng.uniform(0.0, 1.0) < 0.3) {
      const auto parts = static_cast<std::size_t>(result.grid[d]);
      const auto k = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(parts + 1)));
      center[d] = verify::slice_face(domain.lo[d], domain.hi[d],
                                     std::min(k, parts), parts);
    }
  }
  return center;
}

TEST(InvariantIndex, MatchesBruteForceScanOnRandomizedSets) {
  util::Rng rng(11);
  const double densities[] = {0.0, 0.35, 0.8, 1.0};
  for (int trial = 0; trial < 60; ++trial) {
    const auto dim = static_cast<std::size_t>(1 + trial % 3);
    std::vector<int> grid(dim);
    for (auto& g : grid) g = 1 + static_cast<int>(rng.uniform(0.0, 9.0));
    const auto result = random_invariant(rng, grid, densities[trial % 4]);
    Vec lo(dim), hi(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      lo[d] = rng.uniform(-2.0, 0.0);
      hi[d] = lo[d] + rng.uniform(0.5, 3.0);
    }
    const sys::Box domain(lo, hi);
    const verify::InvariantIndex index(result, domain);
    for (int q = 0; q < 60; ++q) {
      const Vec center = random_center(rng, result, domain);
      const double radius = q % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.6);
      ASSERT_EQ(index.covers(center, radius),
                brute_covers(result, domain, center, radius))
          << "trial " << trial << " query " << q;
    }
  }
}

TEST(InvariantIndex, NineDimensionalGridNeedsNoCap) {
  // 9 dimensions: past any 64-bit Morton packing of the grid, and the
  // index still answers exactly.
  const std::size_t dim = 9;
  verify::InvariantResult result;
  result.grid.assign(dim, 2);
  result.completed = true;
  result.member.assign(std::size_t{1} << dim, 1);
  result.member[0] = 0;  // the all-lo corner cell is not a member.
  const sys::Box domain = sys::Box::symmetric(dim, 1.0);
  const verify::InvariantIndex index(result, domain);
  EXPECT_TRUE(index.covers(Vec(dim, 0.5), 0.1));    // deep in member cells.
  EXPECT_FALSE(index.covers(Vec(dim, -0.5), 0.1));  // the removed cell.
  Vec straddle(dim, 0.5);
  straddle[0] = -0.5;  // cell (0,1,...,1) is a member.
  EXPECT_TRUE(index.covers(straddle, 0.1));
  EXPECT_FALSE(index.covers(Vec(dim, 0.0), 0.0));  // the center meets all.

  util::Rng rng(57);
  for (int trial = 0; trial < 4; ++trial) {
    const auto random = random_invariant(rng, std::vector<int>(dim, 2), 0.9);
    const verify::InvariantIndex random_index(random, domain);
    for (int q = 0; q < 100; ++q) {
      const Vec center = random_center(rng, random, domain);
      const double radius = q % 2 == 0 ? 0.0 : rng.uniform(0.0, 0.3);
      ASSERT_EQ(random_index.covers(center, radius),
                brute_covers(random, domain, center, radius))
          << "trial " << trial << " query " << q;
    }
  }
}

TEST(InvariantIndex, FailsClosedOnBadInput) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  verify::InvariantResult result;
  result.grid = {4, 4};
  result.member.assign(16, 1);
  result.completed = true;
  const sys::Box domain = sys::Box::symmetric(2, 1.0);
  const verify::InvariantIndex index(result, domain);
  EXPECT_TRUE(index.covers({0.1, 0.2}, 0.3));
  EXPECT_FALSE(index.covers({0.1}, 0.0));            // dimension mismatch.
  EXPECT_FALSE(index.covers({nan, 0.2}, 0.0));
  EXPECT_FALSE(index.covers({0.1, inf}, 0.0));
  EXPECT_FALSE(index.covers({0.1, 0.2}, nan));
  EXPECT_FALSE(index.covers({0.1, 0.2}, inf));
  EXPECT_FALSE(index.covers({0.1, 0.2}, -0.1));
  EXPECT_FALSE(index.covers({0.9, 0.2}, 0.2));       // ball leaves X.
  EXPECT_FALSE(index.covers({1.5, 0.2}, 0.0));       // point outside X.
  EXPECT_TRUE(index.covers({1.0, -1.0}, 0.0));       // X's own corner.

  auto incomplete = result;
  incomplete.completed = false;
  EXPECT_THROW(verify::InvariantIndex(incomplete, domain),
               std::invalid_argument);
  EXPECT_THROW(verify::InvariantIndex(result, sys::Box::symmetric(3, 1.0)),
               std::invalid_argument);
  auto short_member = result;
  short_member.member.pop_back();
  EXPECT_THROW(verify::InvariantIndex(short_member, domain),
               std::invalid_argument);
  auto zero_cells = result;
  zero_cells.grid = {4, 0};
  EXPECT_THROW(verify::InvariantIndex(zero_cells, domain),
               std::invalid_argument);
  EXPECT_THROW(verify::InvariantIndex(
                   result, sys::Box({-1.0, -inf}, {1.0, inf})),
               std::invalid_argument);
  EXPECT_THROW(verify::InvariantIndex(result, sys::Box({-1.0, 0.5},
                                                       {1.0, 0.5})),
               std::invalid_argument);
  // 2^32 cells: the uint32 counts could not hold them (checked before the
  // member array is consulted).
  auto huge = result;
  huge.grid = {65536, 65536};
  EXPECT_THROW(verify::InvariantIndex(huge, domain), std::invalid_argument);
}

TEST(InvariantIndex, RejectsPointsJustBelowAFaceOfARemovedNeighbour) {
  // Cell column k-1 removed: a state at or below face k (cell k's lower
  // face) meets cell k-1, so it is not certified; a state above the face
  // lies in cell k alone and is.  Walked over every interior face, 4 ulps
  // to either side, for several grids and domains.
  for (const auto& domain_case : face_cases::domains())
    for (const std::size_t parts : face_cases::grids()) {
      const sys::Box domain({domain_case.lo, 0.0}, {domain_case.hi, 1.0});
      verify::InvariantResult result;
      result.grid = {static_cast<int>(parts), 3};
      result.completed = true;
      for (std::size_t k = 1; k < parts; ++k) {
        result.member.assign(parts * 3, 1);
        for (std::size_t row = 0; row < 3; ++row)
          result.member[row * parts + (k - 1)] = 0;
        const verify::InvariantIndex index(result, domain);
        const double face =
            verify::slice_face(domain_case.lo, domain_case.hi, k, parts);
        for (int u = -face_cases::kMaxUlps; u <= face_cases::kMaxUlps; ++u) {
          const double x = face_cases::ulp_step(face, u);
          ASSERT_EQ(index.covers({x, 0.5}, 0.0), x > face)
              << "[" << domain_case.lo << ", " << domain_case.hi << "] / "
              << parts << " face " << k << " ulps " << u;
        }
      }
    }
}

}  // namespace
}  // namespace cocktail
