#include "verify/reach.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cocktail::verify {

std::vector<IBox> pave_boxes(const std::vector<IBox>& boxes,
                             double resolution, std::size_t max_cells) {
  if (!std::isfinite(resolution) || resolution <= 0.0)
    throw std::invalid_argument(
        "pave_boxes: resolution must be finite and > 0");
  if (boxes.empty()) return {};
  const std::size_t dim = boxes.front().size();
  if (dim == 0) return {};
  for (const IBox& box : boxes) {
    if (box.size() != dim)
      throw std::invalid_argument("pave_boxes: mixed box dimensions");
    for (const Interval& iv : box)
      if (!std::isfinite(iv.lo()) || !std::isfinite(iv.hi()) || !iv.valid())
        throw std::invalid_argument(
            "pave_boxes: non-finite or invalid box endpoint — a corrupted "
            "enclosure cannot be soundly paved");
  }
  IBox hull = boxes.front();
  for (const IBox& box : boxes) hull = box_hull(hull, box);
  for (std::size_t d = 0; d < dim; ++d)
    if (!std::isfinite(hull[d].width()))
      throw std::invalid_argument("pave_boxes: hull width overflows double");
  if (max_cells == 0) max_cells = 1;

  // Grid shape: ~resolution-sized cells, coarsened uniformly if the total
  // would exceed max_cells.  Sizing is overflow-checked in double and with
  // a guarded multiply: a wide hull over a tiny resolution must *coarsen*,
  // never wrap size_t and falsely pass the cap (the pre-fix bug: e.g.
  // 2^32 cells per dimension in 2-D wrapped the product to zero).
  constexpr auto kMaxCellsPerDim = std::size_t{1} << 31;
  std::vector<std::size_t> cells(dim);
  for (;;) {
    bool over = false;
    std::size_t total = 1;
    for (std::size_t d = 0; d < dim && !over; ++d) {
      const double want = std::ceil(hull[d].width() / resolution);
      if (!(want >= 1.0)) {  // degenerate widths pave as a single cell.
        cells[d] = 1;
      } else if (want > static_cast<double>(kMaxCellsPerDim)) {
        over = true;
        break;
      } else {
        cells[d] = static_cast<std::size_t>(want);
      }
      if (total > max_cells / cells[d])
        over = true;  // total * cells[d] would exceed max_cells (or wrap).
      else
        total *= cells[d];
    }
    if (!over && total <= max_cells) break;
    resolution *= 1.5;
  }

  // Mark covered cells by their row-major index (dim 0 fastest).  The
  // index fits by construction (total <= max_cells); dedup is a sort, and
  // the emission order is ascending index — deterministic and invariant
  // under permutations of the input boxes.
  std::vector<std::size_t> lo_idx(dim), hi_idx(dim), idx(dim), stride(dim);
  stride[0] = 1;
  for (std::size_t d = 1; d < dim; ++d)
    stride[d] = stride[d - 1] * cells[d - 1];
  std::vector<std::size_t> keys;
  for (const IBox& box : boxes) {
    // Every cell whose closed box meets the box: their union covers it.
    for (std::size_t d = 0; d < dim; ++d) {
      const SliceRange range = slices_meeting(
          hull[d].lo(), hull[d].hi(), cells[d], box[d].lo(), box[d].hi());
      lo_idx[d] = range.first;
      hi_idx[d] = range.last;
    }
    idx = lo_idx;
    for (;;) {
      std::size_t key = 0;
      for (std::size_t d = 0; d < dim; ++d) key += idx[d] * stride[d];
      keys.push_back(key);
      std::size_t d = 0;
      while (d < dim && ++idx[d] > hi_idx[d]) {
        idx[d] = lo_idx[d];
        ++d;
      }
      if (d == dim) break;
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<IBox> out;
  out.reserve(keys.size());
  for (const std::size_t key : keys) {
    IBox cell(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t k = key / stride[d] % cells[d];
      cell[d] = {slice_face(hull[d].lo(), hull[d].hi(), k, cells[d]),
                 slice_face(hull[d].lo(), hull[d].hi(), k + 1, cells[d])};
    }
    out.push_back(std::move(cell));
  }
  return out;
}

bool box_inside_region(const IBox& box, const sys::Box& region) {
  if (box.size() != region.dim()) return false;
  for (std::size_t i = 0; i < box.size(); ++i) {
    // Fail closed on corrupted enclosures: a NaN/Inf endpoint (an invalid
    // Interval escaping interval arithmetic) certifies nothing — without
    // this guard the bounded-dimension comparisons below are NaN-blind
    // (both compare false) and a garbage box would count as safe.
    if (!std::isfinite(box[i].lo()) || !std::isfinite(box[i].hi()) ||
        !box[i].valid())
      return false;
    if (std::isfinite(region.lo[i]) && box[i].lo() < region.lo[i])
      return false;
    if (std::isfinite(region.hi[i]) && box[i].hi() > region.hi[i])
      return false;
  }
  return true;
}

ReachabilityAnalyzer::ReachabilityAnalyzer(sys::SystemPtr system,
                                           const ctrl::Controller& controller,
                                           ReachConfig config)
    : system_(std::move(system)), controller_(controller),
      config_(std::move(config)),
      dynamics_(make_interval_dynamics(*system_)) {}

ReachResult ReachabilityAnalyzer::analyze(const IBox& initial) const {
  util::Stopwatch timer;
  ReachResult result;
  result.layers.push_back({initial});
  NnAbstraction abstraction(controller_, config_.abstraction);
  VerificationBudget budget = config_.budget;
  const sys::Box& safe = system_->safe_region();
  const IBox u_bounds =
      make_box(system_->control_bounds().lo, system_->control_bounds().hi);
  util::WorkerScope workers(config_.num_workers);

  // The image of one work item (a contiguous chunk of one frontier box's
  // sub-boxes): its successor boxes plus the work it consumed.  Items run
  // in parallel, each against a private budget capped at the whole budget
  // remaining when its *wave* started (the same cap for every item of the
  // wave), and the images merge in fixed schedule order below — so
  // counters, frontier ordering, and failures are bitwise identical for
  // any worker count.
  struct BoxImage {
    std::vector<IBox> next;
    long nn_evaluations = 0;
    long partitions = 0;
    std::string failure;  ///< non-empty when this item exhausted the cap.
  };
  struct SubChunk {
    std::size_t slot = 0;   ///< index of the frontier box within the wave.
    std::size_t first = 0;  ///< sub-box range [first, last).
    std::size_t last = 0;
  };

  // Frontier boxes are processed in fixed-size waves with the cumulative
  // budget re-checked between waves, so a run overshoots an exhausted
  // budget by at most one wave's concurrent chunks instead of a whole
  // frontier's (exact serial stop points cannot survive parallel merge
  // determinism).  The wave size bounds that overshoot AND caps the
  // sweep's concurrency, and is part of the deterministic schedule: it
  // must not depend on the worker count.
  constexpr std::size_t kFrontierWave = 16;

  // Per-dimension subdivision counts against wrapping.  NaN-closed: a
  // corrupted (non-finite) width must not reach the int cast (UB) — such
  // boxes pass through unsubdivided and fail the safe-region sweep closed.
  // The per-dim cap keeps the cast in range; the frontier cap below
  // bounds the materialized sub-boxes either way.
  const auto subdivision_parts = [&](const IBox& box) {
    std::vector<int> parts(box.size(), 1);
    for (std::size_t d = 0; d < box.size(); ++d) {
      const double w = box[d].width();
      if (std::isfinite(w) && w > config_.max_box_width)
        parts[d] = static_cast<int>(
            std::min(std::ceil(w / config_.max_box_width), 1.0e9));
    }
    return parts;
  };
  const std::string max_boxes_failure =
      "reachable-set frontier exceeded max_boxes=" +
      std::to_string(config_.max_boxes);

  bool all_safe = box_inside_region(initial, safe);
  std::string failure;
  for (int t = 0; t < config_.steps && failure.empty(); ++t) {
    const auto& frontier = result.layers.back();
    std::vector<IBox> next;
    for (std::size_t wave = 0; wave < frontier.size() && failure.empty();
         wave += kFrontierWave) {
      const std::size_t wave_count =
          std::min(frontier.size(), wave + kFrontierWave) - wave;
      const long nn_remaining =
          budget.max_nn_evaluations - budget.nn_evaluations;
      const long partitions_remaining =
          budget.max_partitions - budget.partitions;

      // Subdivide against wrapping on the scheduling thread (fixed order),
      // then split each box's sub-boxes into ceil(kFrontierWave /
      // wave_count) contiguous chunks: one per box on a full wave,
      // kFrontierWave on a one-box wave, so a short wave still fills the
      // pool.  The chunking is a function of the counts only, never of the
      // worker count.
      std::vector<std::vector<IBox>> subs(wave_count);
      try {
        for (std::size_t w = 0; w < wave_count; ++w)
          subs[w] = box_subdivide(frontier[wave + w],
                                  subdivision_parts(frontier[wave + w]));
      } catch (const std::invalid_argument& e) {
        failure = e.what();  // corrupted box: fail closed, never crash.
        break;
      }
      const std::size_t chunks_per_box =
          (kFrontierWave + wave_count - 1) / wave_count;
      std::vector<SubChunk> chunks;
      for (std::size_t w = 0; w < wave_count; ++w) {
        const std::size_t n = subs[w].size();
        const std::size_t grain = (n + chunks_per_box - 1) / chunks_per_box;
        for (std::size_t first = 0; first < n; first += grain)
          chunks.push_back({w, first, std::min(n, first + grain)});
      }
      std::vector<BoxImage> images(chunks.size());
      const auto process_chunk = [&](std::size_t c) {
        BoxImage& image = images[c];
        VerificationBudget local;
        local.max_nn_evaluations = nn_remaining;
        local.max_partitions = partitions_remaining;
        try {
          const SubChunk& chunk = chunks[c];
          for (std::size_t s = chunk.first; s < chunk.last; ++s) {
            const IBox& sub = subs[chunk.slot][s];
            const ControlEnclosure u =
                abstraction.enclose(sub, u_bounds, local);
            image.next.push_back(dynamics_->step(sub, u.u_range));
            if (image.next.size() > config_.max_boxes)
              throw BudgetExhausted(max_boxes_failure);
          }
        } catch (const BudgetExhausted& e) {
          image.failure = e.what();
        } catch (const std::invalid_argument& e) {
          image.failure = e.what();  // corrupted box: fail closed.
        }
        image.nn_evaluations = local.nn_evaluations;
        image.partitions = local.partitions;
      };
      util::run_chunks(workers.pool(), images.size(), process_chunk);

      // Fixed-order merge in (box, chunk) order — exactly the serial
      // enumeration: charge every chunk's work to the shared budget, keep
      // the first failure, and track each frontier box's cumulative image
      // size so the max_boxes failure fires at the same box however its
      // sub-boxes were chunked.
      std::size_t current_slot = 0;
      std::size_t slot_boxes = 0;
      for (std::size_t c = 0; c < images.size(); ++c) {
        BoxImage& image = images[c];
        budget.nn_evaluations += image.nn_evaluations;
        budget.partitions += image.partitions;
        if (!failure.empty()) continue;
        if (chunks[c].slot != current_slot) {
          current_slot = chunks[c].slot;
          slot_boxes = 0;
        }
        if (!image.failure.empty()) {
          failure = image.failure;
          continue;
        }
        slot_boxes += image.next.size();
        if (slot_boxes > config_.max_boxes) {
          failure = max_boxes_failure;
          continue;
        }
        for (IBox& box : image.next) next.push_back(std::move(box));
        if (next.size() > config_.max_boxes) failure = max_boxes_failure;
      }
      if (failure.empty() && budget.exhausted())
        failure = "verification budget exhausted while abstracting '" +
                  controller_.describe() +
                  "' (partitions=" + std::to_string(budget.partitions) +
                  ", nn_evals=" + std::to_string(budget.nn_evaluations) + ")";
    }
    if (!failure.empty()) break;

    // Bound the frontier: re-pave onto a regular grid once it grows past
    // the merge threshold (sound union cover, in row-major cell order).
    if (config_.merge_threshold > 0 &&
        next.size() > config_.merge_threshold) {
      try {
        next = pave_boxes(next, config_.max_box_width,
                          config_.merge_threshold * 4);
      } catch (const std::invalid_argument& e) {
        failure = e.what();  // non-finite frontier box: fail closed.
        break;
      }
    }
    all_safe = all_safe && std::all_of(next.begin(), next.end(),
                                       [&](const IBox& box) {
                                         return box_inside_region(box, safe);
                                       });
    result.layers.push_back(std::move(next));
  }
  if (failure.empty()) {
    result.completed = true;
    result.safe = all_safe;
  } else {
    result.completed = false;
    result.safe = false;
    result.failure = failure;
    COCKTAIL_WARN << "reachability failed for " << controller_.describe()
                  << ": " << failure;
  }
  result.seconds = timer.seconds();
  result.nn_evaluations = budget.nn_evaluations;
  result.partitions = budget.partitions;
  return result;
}

}  // namespace cocktail::verify
