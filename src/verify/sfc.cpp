#include "verify/sfc.h"

#include <algorithm>
#include <cmath>

namespace cocktail::verify {

int sfc_max_bits(std::size_t dim) {
  if (dim == 0) return 0;
  // Coordinates are uint32, so 32 bits per dimension is the ceiling even
  // in one dimension.
  return static_cast<int>(std::min<std::size_t>(32, 63 / dim));
}

bool sfc_fits(std::size_t dim, int bits) {
  if (dim == 0 || bits < 0) return false;
  return static_cast<std::size_t>(bits) * dim <= 63 && bits <= 32;
}

std::uint64_t sfc_encode(const std::vector<std::uint32_t>& coords, int bits) {
  const std::size_t dim = coords.size();
  std::uint64_t key = 0;
  for (int b = 0; b < bits; ++b)
    for (std::size_t d = 0; d < dim; ++d)
      key |= static_cast<std::uint64_t>((coords[d] >> b) & 1u)
             << (static_cast<std::size_t>(b) * dim + d);
  return key;
}

void sfc_decode(std::uint64_t key, std::size_t dim, int bits,
                std::vector<std::uint32_t>& coords) {
  coords.assign(dim, 0);
  for (int b = 0; b < bits; ++b)
    for (std::size_t d = 0; d < dim; ++d)
      coords[d] |= static_cast<std::uint32_t>(
          (key >> (static_cast<std::size_t>(b) * dim + d)) & 1u)
          << b;
}

std::vector<std::uint32_t> sfc_decode(std::uint64_t key, std::size_t dim,
                                      int bits) {
  std::vector<std::uint32_t> coords;
  sfc_decode(key, dim, bits, coords);
  return coords;
}

std::uint32_t sfc_cell_coord(double x, double lo, double hi,
                             std::uint32_t cells) {
  if (cells == 0) return 0;
  if (!std::isfinite(x) || !std::isfinite(lo) || !std::isfinite(hi) ||
      hi <= lo)
    return 0;
  const double scaled = (x - lo) / (hi - lo) * static_cast<double>(cells);
  if (!(scaled > 0.0)) return 0;  // NaN-closed: non-positive and NaN -> 0.
  if (scaled >= static_cast<double>(cells)) return cells - 1;
  return static_cast<std::uint32_t>(scaled);
}

}  // namespace cocktail::verify
