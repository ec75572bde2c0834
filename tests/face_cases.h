// Shared cases for the face-enumeration regression tests: grid faces are
// where a cell index computed as floor((x - lo) / w) can disagree with the
// slice_face cells it indexes, so these tests walk every interior face of
// several grids over several domains, a few ulps to either side.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace cocktail::face_cases {

struct Domain {
  double lo;
  double hi;
};

/// Domains whose cell widths are not exact in binary.
inline const std::vector<Domain>& domains() {
  static const std::vector<Domain> kDomains = {
      {-1.0, 1.0}, {-0.7, 2.3}, {0.1, 0.9}, {-2.5, 3.3}};
  return kDomains;
}

/// Cells per dimension, 10 to 256.
inline const std::vector<std::size_t>& grids() {
  static const std::vector<std::size_t> kGrids = {10, 17, 40, 80, 100, 256};
  return kGrids;
}

/// Ulp offsets walked around each face.
inline constexpr int kMaxUlps = 4;

/// `x` moved by `ulps` representable doubles (negative moves down).
inline double ulp_step(double x, int ulps) {
  const double toward = ulps < 0 ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) x = std::nextafter(x, toward);
  return x;
}

}  // namespace cocktail::face_cases
