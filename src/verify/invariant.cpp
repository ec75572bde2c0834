#include "verify/invariant.h"

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace cocktail::verify {
namespace {

/// Flattened cell indexing over the grid (dimension 0 fastest).
struct GridIndexer {
  std::vector<int> grid;
  sys::Box domain;

  [[nodiscard]] IBox cell_box(std::size_t index) const {
    IBox box(grid.size());
    std::size_t rem = index;
    for (std::size_t d = 0; d < grid.size(); ++d) {
      const auto g = static_cast<std::size_t>(grid[d]);
      const std::size_t k = rem % g;
      rem /= g;
      box[d] = {slice_face(domain.lo[d], domain.hi[d], k, g),
                slice_face(domain.lo[d], domain.hi[d], k + 1, g)};
    }
    return box;
  }

  /// Index range [lo_k, hi_k] of cells whose closed box meets `box` along
  /// each dim, or false if the box leaves the domain.
  [[nodiscard]] bool overlap_range(const IBox& box, std::vector<int>& lo_k,
                                   std::vector<int>& hi_k) const {
    lo_k.resize(grid.size());
    hi_k.resize(grid.size());
    for (std::size_t d = 0; d < grid.size(); ++d) {
      if (!(domain.lo[d] <= box[d].lo() && box[d].hi() <= domain.hi[d]))
        return false;
      const SliceRange range =
          slices_meeting(domain.lo[d], domain.hi[d],
                         static_cast<std::size_t>(grid[d]), box[d].lo(),
                         box[d].hi());
      if (range.empty()) return false;
      lo_k[d] = static_cast<int>(range.first);
      hi_k[d] = static_cast<int>(range.last);
    }
    return true;
  }
};

/// Largest cell count the index's uint32 member counts can hold exactly.
constexpr std::size_t kMaxIndexedCells =
    std::numeric_limits<std::uint32_t>::max();
/// The table holds at least 2^dim entries, so an index has fewer
/// dimensions than a size_t has bits.
constexpr std::size_t kMaxIndexDim = std::numeric_limits<std::size_t>::digits;

}  // namespace

IBox InvariantResult::cell_box(const sys::Box& domain,
                               std::size_t index) const {
  const GridIndexer indexer{grid, domain};
  return indexer.cell_box(index);
}

InvariantIndex::InvariantIndex(const InvariantResult& result, sys::Box domain)
    : domain_(std::move(domain)) {
  if (!result.completed)
    throw std::invalid_argument(
        "InvariantIndex: invariant computation did not complete — its member "
        "set certifies nothing");
  const std::size_t dim = result.grid.size();
  if (dim == 0 || dim != domain_.dim())
    throw std::invalid_argument(
        "InvariantIndex: invariant grid / domain dimension mismatch");
  std::size_t cells = 1, table = 1;
  grid_.resize(dim);
  stride_.resize(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    if (result.grid[d] <= 0)
      throw std::invalid_argument("InvariantIndex: non-positive cell count");
    if (!(std::isfinite(domain_.lo[d]) && std::isfinite(domain_.hi[d]) &&
          domain_.lo[d] < domain_.hi[d]))
      throw std::invalid_argument(
          "InvariantIndex: every domain dimension must be a finite lo < hi");
    grid_[d] = static_cast<std::size_t>(result.grid[d]);
    if (cells > kMaxIndexedCells / grid_[d])
      throw std::invalid_argument(
          "InvariantIndex: grid holds 2^32 or more cells");
    cells *= grid_[d];
    stride_[d] = table;
    if (table > std::numeric_limits<std::size_t>::max() / (grid_[d] + 1))
      throw std::invalid_argument("InvariantIndex: table size overflows");
    table *= grid_[d] + 1;
  }
  if (result.member.size() != cells)
    throw std::invalid_argument(
        "InvariantIndex: member array does not match the grid");

  // Member k lands at table point k + 1, then a prefix sum along each axis
  // in ascending index order turns the table into the summed-area table.
  sat_.assign(table, 0);
  for (std::size_t flat = 0; flat < cells; ++flat) {
    if (result.member[flat] == 0) continue;
    std::size_t rem = flat, at = 0;
    for (std::size_t d = 0; d < dim; ++d) {
      at += (rem % grid_[d] + 1) * stride_[d];
      rem /= grid_[d];
    }
    sat_[at] = 1;
  }
  for (std::size_t d = 0; d < dim; ++d)
    for (std::size_t i = 0; i < table; ++i)
      if ((i / stride_[d]) % (grid_[d] + 1) != 0)
        sat_[i] += sat_[i - stride_[d]];
}

bool InvariantIndex::covers(const la::Vec& center, double radius) const {
  const std::size_t dim = grid_.size();
  if (center.size() != dim || !std::isfinite(radius) || !(radius >= 0.0))
    return false;
  // Per dimension, the table offsets of the window's low corner (first)
  // and of one past its high corner (last + 1).  Left uninitialized on
  // purpose: zeroing the whole buffer doubles the check's cost, and the
  // loop below writes entries [0, 2 * dim) before anything reads them.
  std::array<std::size_t, 2 * kMaxIndexDim> offsets;
  std::uint32_t volume = 1;
  for (std::size_t d = 0; d < dim; ++d) {
    if (!std::isfinite(center[d])) return false;
    const double a = center[d] - radius;
    const double b = center[d] + radius;
    if (!(domain_.lo[d] <= a && b <= domain_.hi[d])) return false;
    const SliceRange range =
        slices_meeting(domain_.lo[d], domain_.hi[d], grid_[d], a, b);
    if (range.empty()) return false;
    offsets[2 * d] = range.first * stride_[d];
    offsets[2 * d + 1] = (range.last + 1) * stride_[d];
    volume *= static_cast<std::uint32_t>(range.last - range.first + 1);
  }
  // Inclusion-exclusion over the 2^d corners: a corner taking the low
  // offset on an odd number of axes enters negatively.  Wrapping uint32
  // arithmetic is exact because the true count is below 2^32.
  std::uint32_t count = 0;
  for (std::size_t corner = 0; corner < (std::size_t{1} << dim); ++corner) {
    std::size_t at = 0;
    bool negative = false;
    for (std::size_t d = 0; d < dim; ++d) {
      const bool high = ((corner >> d) & 1U) != 0;
      at += offsets[2 * d + (high ? 1 : 0)];
      negative ^= !high;
    }
    count += negative ? 0U - sat_[at] : sat_[at];
  }
  return count == volume;
}

InvariantSetComputer::InvariantSetComputer(sys::SystemPtr system,
                                           const ctrl::Controller& controller,
                                           InvariantConfig config)
    : system_(std::move(system)), controller_(controller),
      config_(std::move(config)) {
  if (!system_->safe_region().bounded())
    throw std::invalid_argument(
        "InvariantSetComputer: safe region must be bounded (use a bounded "
        "sub-domain for systems with unconstrained dimensions)");
}

InvariantResult InvariantSetComputer::compute() const {
  util::Stopwatch timer;
  InvariantResult result;
  const sys::Box domain = system_->safe_region();
  result.grid = config_.grid;
  if (result.grid.empty()) result.grid.assign(system_->state_dim(), 40);
  const GridIndexer indexer{result.grid, domain};
  std::size_t cells = 1;
  for (const int g : result.grid) cells *= static_cast<std::size_t>(g);
  result.member.assign(cells, 1);

  NnAbstraction abstraction(controller_, config_.abstraction);
  VerificationBudget budget = config_.budget;
  const auto dynamics = make_interval_dynamics(*system_);
  const IBox u_bounds =
      make_box(system_->control_bounds().lo, system_->control_bounds().hi);

  // Phase 1 (expensive, Lipschitz-dependent): one-step image of every cell.
  std::vector<IBox> images(cells);
  try {
    for (std::size_t i = 0; i < cells; ++i) {
      const IBox cell = indexer.cell_box(i);
      const ControlEnclosure u = abstraction.enclose(cell, u_bounds, budget);
      images[i] = dynamics->step(cell, u.u_range);
    }
  } catch (const BudgetExhausted& e) {
    // No cell was proven: an incomplete result claims none.
    result.member.assign(cells, 0);
    result.completed = false;
    result.failure = e.what();
    result.seconds = timer.seconds();
    result.nn_evaluations = budget.nn_evaluations;
    result.partitions = budget.partitions;
    COCKTAIL_WARN << "invariant-set computation failed for "
                  << controller_.describe() << ": " << e.what();
    return result;
  }

  // Phase 2 (cheap): fixed-point removal of cells whose image escapes the
  // candidate union.
  std::vector<int> lo_k, hi_k;
  bool changed = true;
  while (changed && result.iterations < config_.max_iterations) {
    changed = false;
    ++result.iterations;
    for (std::size_t i = 0; i < cells; ++i) {
      if (!result.member[i]) continue;
      bool stays = indexer.overlap_range(images[i], lo_k, hi_k);
      if (stays) {
        // Every overlapped cell must still be a member.
        std::vector<int> k = lo_k;
        for (;;) {
          std::size_t index = 0;
          std::size_t stride = 1;
          for (std::size_t d = 0; d < k.size(); ++d) {
            index += static_cast<std::size_t>(k[d]) * stride;
            stride *= static_cast<std::size_t>(result.grid[d]);
          }
          if (!result.member[index]) {
            stays = false;
            break;
          }
          // Advance the odometer over [lo_k, hi_k].
          std::size_t d = 0;
          while (d < k.size() && ++k[d] > hi_k[d]) {
            k[d] = lo_k[d];
            ++d;
          }
          if (d == k.size()) break;
        }
      }
      if (!stays) {
        result.member[i] = 0;
        changed = true;
      }
    }
  }

  std::size_t surviving = 0;
  for (char m : result.member) surviving += (m != 0);
  result.volume_fraction =
      static_cast<double>(surviving) / static_cast<double>(cells);
  result.completed = true;
  result.seconds = timer.seconds();
  result.nn_evaluations = budget.nn_evaluations;
  result.partitions = budget.partitions;
  COCKTAIL_INFO << "invariant set for " << controller_.describe() << ": "
                << surviving << "/" << cells << " cells in "
                << result.iterations << " iterations, "
                << result.seconds << " s";
  return result;
}

}  // namespace cocktail::verify
