// Tests for the SFC key layer (verify/sfc.h) and the BoxTree built on it
// (verify/box_tree.h).  The load-bearing property throughout: tree-backed
// verdicts are bitwise identical to flat reference scans — randomized
// boxes and query points, including the fail-closed NaN/Inf cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sys/system.h"
#include "util/rng.h"
#include "verify/box_tree.h"
#include "verify/interval.h"
#include "verify/reach.h"
#include "verify/sfc.h"

namespace cocktail {
namespace {

using la::Vec;
using verify::BoxTree;
using verify::IBox;
using verify::Interval;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

int rand_int(util::Rng& rng, int lo, int hi) {  // inclusive range.
  return lo + static_cast<int>(rng.uniform(0.0, 1.0) *
                               static_cast<double>(hi - lo + 1)) %
                  (hi - lo + 1);
}

TEST(Sfc, KeyRoundTripAcrossDims) {
  util::Rng rng(7);
  for (std::size_t dim = 1; dim <= 8; ++dim) {
    const int bits = verify::sfc_max_bits(dim);
    ASSERT_TRUE(verify::sfc_fits(dim, bits));
    ASSERT_FALSE(verify::sfc_fits(dim, bits + 1));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint32_t> coords(dim);
      for (auto& c : coords)
        c = static_cast<std::uint32_t>(
            rng.uniform(0.0, std::ldexp(1.0, bits)));
      const std::uint64_t key = verify::sfc_encode(coords, bits);
      EXPECT_EQ(verify::sfc_decode(key, dim, bits), coords);
      // The parent-cell property the tree build relies on: halving every
      // coordinate is one right-shift of the whole key by dim.
      std::vector<std::uint32_t> parent(dim);
      for (std::size_t d = 0; d < dim; ++d) parent[d] = coords[d] >> 1;
      EXPECT_EQ(verify::sfc_encode(parent, bits - 1), key >> dim);
    }
  }
}

TEST(Sfc, CellCoordFailsClosedOnNonFinite) {
  EXPECT_EQ(verify::sfc_cell_coord(kNan, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(0.5, kNan, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(kInf, 0.0, 1.0, 8), 0u);
  EXPECT_EQ(verify::sfc_cell_coord(0.5, 1.0, 0.0, 8), 0u);  // hi <= lo.
  EXPECT_EQ(verify::sfc_cell_coord(-3.0, 0.0, 1.0, 8), 0u);   // clamp low.
  EXPECT_EQ(verify::sfc_cell_coord(99.0, 0.0, 1.0, 8), 7u);   // clamp high.
  EXPECT_EQ(verify::sfc_cell_coord(0.51, 0.0, 1.0, 8), 4u);
}

IBox random_box(util::Rng& rng, std::size_t dim, double span) {
  IBox box(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    const double lo = rng.uniform(-span, span);
    box[d] = {lo, lo + rng.uniform(0.0, 0.4 * span)};
  }
  return box;
}

TEST(BoxTree, QueriesMatchFlatScans) {
  util::Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t dim = static_cast<std::size_t>(rand_int(rng, 1, 4));
    const std::size_t count = static_cast<std::size_t>(rand_int(rng, 0, 60));
    std::vector<IBox> boxes;
    boxes.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      boxes.push_back(random_box(rng, dim, 2.0));
    const BoxTree tree = BoxTree::build(boxes);
    ASSERT_EQ(tree.size(), count);

    for (int q = 0; q < 30; ++q) {
      Vec point(dim);
      for (auto& x : point) x = rng.uniform(-2.5, 2.5);
      bool flat = false;
      for (const IBox& box : boxes)
        flat = flat || verify::box_contains(box, point);
      EXPECT_EQ(tree.contains_point(point), flat);

      const IBox query = random_box(rng, dim, 2.0);
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < count; ++i) {
        bool hit = true;
        for (std::size_t d = 0; d < dim; ++d)
          hit = hit && boxes[i][d].intersects(query[d]);
        if (hit) expect.push_back(i);
      }
      EXPECT_EQ(tree.intersecting(query), expect);
    }

    const sys::Box region = sys::Box::symmetric(dim, 2.2);
    bool flat_inside = true;
    for (const IBox& box : boxes)
      flat_inside = flat_inside && verify::box_inside_region(box, region);
    EXPECT_EQ(tree.all_inside(region), flat_inside);
    // Generous region: everything fits (vacuously true when empty).
    EXPECT_TRUE(tree.all_inside(sys::Box::symmetric(dim, 1e6)));
  }
}

TEST(BoxTree, NonFiniteBoxesAreTaintedNotPoisonous) {
  std::vector<IBox> boxes;
  boxes.push_back(verify::make_box({0.0, 0.0}, {1.0, 1.0}));
  IBox bad(2);
  bad[0] = {kNan, kNan};
  bad[1] = {0.0, kInf};
  boxes.push_back(bad);
  boxes.push_back(verify::make_box({-1.0, -1.0}, {-0.5, -0.5}));
  const BoxTree tree = BoxTree::build(boxes);

  // The corrupted box satisfies no query and never certifies safety...
  EXPECT_FALSE(tree.all_inside(sys::Box::symmetric(2, 100.0)));
  EXPECT_TRUE(tree.intersecting(bad).empty());
  // ...but valid siblings still answer exactly.
  EXPECT_TRUE(tree.contains_point({0.5, 0.5}));
  EXPECT_TRUE(tree.contains_point({-0.75, -0.75}));
  EXPECT_FALSE(tree.contains_point({3.0, 3.0}));
  EXPECT_FALSE(tree.contains_point({kNan, 0.5}));  // NaN point fails closed.
  const std::vector<std::size_t> hits =
      tree.intersecting(verify::make_box({0.4, 0.4}, {0.6, 0.6}));
  EXPECT_EQ(hits, (std::vector<std::size_t>{0}));

  // An unbounded-but-valid region dimension still passes valid boxes.
  sys::Box half(Vec{-2.0, -sys::Box::kUnbounded},
                Vec{2.0, sys::Box::kUnbounded});
  std::vector<IBox> fine;
  fine.push_back(verify::make_box({-1.0, -50.0}, {1.0, 50.0}));
  EXPECT_TRUE(BoxTree::build(fine).all_inside(half));

  EXPECT_THROW((void)BoxTree::build({verify::make_box({0.0}, {1.0}),
                                     verify::make_box({0.0, 0.0}, {1.0, 1.0})}),
               std::invalid_argument);
}

TEST(BoxTree, BuildIsPureFunctionOfSequence) {
  util::Rng rng(31);
  std::vector<IBox> boxes;
  for (int i = 0; i < 40; ++i) boxes.push_back(random_box(rng, 3, 1.5));
  const BoxTree a = BoxTree::build(boxes);
  const BoxTree b = BoxTree::build(boxes);
  // Bitwise-equal stored boxes and identical answers on shared queries.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(a.boxes()[i][d].lo(), b.boxes()[i][d].lo());
      EXPECT_EQ(a.boxes()[i][d].hi(), b.boxes()[i][d].hi());
    }
  for (int q = 0; q < 50; ++q) {
    const IBox query = random_box(rng, 3, 1.5);
    EXPECT_EQ(a.intersecting(query), b.intersecting(query));
  }
}

TEST(PaveBoxes, OutputInvariantUnderInputPermutation) {
  util::Rng rng(41);
  std::vector<IBox> boxes;
  for (int i = 0; i < 30; ++i) boxes.push_back(random_box(rng, 2, 1.0));
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

}  // namespace
}  // namespace cocktail
