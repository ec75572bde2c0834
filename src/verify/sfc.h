// Space-filling-curve (Morton / Z-order) keys for the reach-side spatial
// index (after the cstone idea of SFC keys over state space).
//
// A d-dimensional cell coordinate is packed into one 64-bit key by bit
// interleaving: key bit (b*d + i) is bit b of coordinate i, so a key packs
// any dim with dim * bits <= 63.  Sorting keys therefore sorts cells in
// Z-order and adjacent keys are spatially close — the ordering behind
// BoxTree's leaf runs (verify/box_tree.h) and pave_boxes' emission order
// (verify/reach.h).
//
// Keys are an *ordering/packing* device only: every accepting decision made
// over a keyed structure re-checks exact stored endpoints, so quantization
// here never needs outward rounding, and no certificate membership is
// decided by a key (that is verify::InvariantIndex's job).  All functions
// are pure and deterministic; encode/decode round-trip bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cocktail::verify {

/// Most per-dimension bits a `dim`-dimensional Morton key can carry in the
/// 63 usable bits of a uint64 (0 for dim == 0).
[[nodiscard]] int sfc_max_bits(std::size_t dim);

/// True when a `dim`-dimensional grid with `bits` bits per dimension packs
/// into one 64-bit Morton key.
[[nodiscard]] bool sfc_fits(std::size_t dim, int bits);

/// Interleaves `coords` (each < 2^bits) into a Morton key.  Requires
/// sfc_fits(coords.size(), bits); coordinate bits above `bits` are ignored.
[[nodiscard]] std::uint64_t sfc_encode(const std::vector<std::uint32_t>& coords,
                                       int bits);

/// Inverse of sfc_encode into a caller-provided buffer of size `dim`.
void sfc_decode(std::uint64_t key, std::size_t dim, int bits,
                std::vector<std::uint32_t>& coords);

/// Allocating convenience overload of sfc_decode.
[[nodiscard]] std::vector<std::uint32_t> sfc_decode(std::uint64_t key,
                                                    std::size_t dim, int bits);

/// Cell coordinate of `x` in [lo, hi) split into `cells` uniform slices,
/// clamped to [0, cells-1].  NaN-closed: a non-finite or degenerate input
/// maps to cell 0 — safe because keys only order candidates; membership is
/// always re-decided against exact endpoints.
[[nodiscard]] std::uint32_t sfc_cell_coord(double x, double lo, double hi,
                                           std::uint32_t cells);

}  // namespace cocktail::verify
