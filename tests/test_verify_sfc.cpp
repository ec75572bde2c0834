// Tests for the order-free frontier paving (verify::pave_boxes) and the
// fail-closed safe-region predicate (verify::box_inside_region) that the
// reach sweep builds each layer on: paving does not depend on the order of
// its input boxes, and NaN/Inf/inverted boxes certify nothing.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "sys/system.h"
#include "util/rng.h"
#include "verify/interval.h"
#include "verify/reach.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::IBox;
using verify::Interval;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(PaveBoxes, OutputInvariantUnderInputPermutation) {
  util::Rng rng(41);
  std::vector<IBox> boxes;
  for (int i = 0; i < 30; ++i) {
    IBox box(2);
    for (std::size_t d = 0; d < 2; ++d) {
      const double lo = rng.uniform(-1.0, 1.0);
      box[d] = {lo, lo + rng.uniform(0.0, 0.4)};
    }
    boxes.push_back(std::move(box));
  }
  const std::vector<IBox> paved = verify::pave_boxes(boxes, 0.125, 4096);

  std::vector<IBox> reversed(boxes.rbegin(), boxes.rend());
  const std::vector<IBox> paved_rev = verify::pave_boxes(reversed, 0.125, 4096);
  ASSERT_EQ(paved.size(), paved_rev.size());
  for (std::size_t i = 0; i < paved.size(); ++i)
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(paved[i][d].lo(), paved_rev[i][d].lo());
      EXPECT_EQ(paved[i][d].hi(), paved_rev[i][d].hi());
    }
  // And the cover is sound either way.
  for (const IBox& box : boxes) {
    for (std::size_t d = 0; d < 2; ++d) {
      Vec corner(2);
      corner[0] = d == 0 ? box[0].lo() : box[0].hi();
      corner[1] = box[1].mid();
      bool covered = false;
      for (const IBox& cell : paved)
        covered = covered || verify::box_contains(cell, corner);
      EXPECT_TRUE(covered);
    }
  }
}

TEST(BoxInsideRegion, FailsClosedOnCorruptedBoxes) {
  const sys::Box region = sys::Box::symmetric(2, 100.0);
  EXPECT_TRUE(verify::box_inside_region(
      verify::make_box({0.0, 0.0}, {1.0, 1.0}), region));
  // NaN, +Inf, -Inf and inverted (lo > hi) components certify nothing,
  // however generous the region.
  for (const Interval bad :
       {Interval(kNan, kNan), Interval(0.0, kNan), Interval(kNan, 0.0),
        Interval(0.0, kInf), Interval(-kInf, 0.0), Interval(1.0, 0.5)}) {
    IBox box = verify::make_box({0.0, 0.0}, {1.0, 1.0});
    box[1] = bad;
    EXPECT_FALSE(verify::box_inside_region(box, region))
        << "[" << bad.lo() << ", " << bad.hi() << "]";
  }
  // A box outside a bounded dimension fails; an unbounded region dimension
  // passes any valid finite box.
  EXPECT_FALSE(verify::box_inside_region(
      verify::make_box({0.0, 0.0}, {101.0, 1.0}), region));
  const sys::Box half(Vec{-2.0, -sys::Box::kUnbounded},
                      Vec{2.0, sys::Box::kUnbounded});
  EXPECT_TRUE(verify::box_inside_region(
      verify::make_box({-1.0, -50.0}, {1.0, 50.0}), half));
  EXPECT_FALSE(verify::box_inside_region(
      verify::make_box({-3.0, -50.0}, {1.0, 50.0}), half));
  // A dimension mismatch fails closed.
  EXPECT_FALSE(verify::box_inside_region(verify::make_box({0.0}, {1.0}),
                                         region));
}

}  // namespace
}  // namespace cocktail
