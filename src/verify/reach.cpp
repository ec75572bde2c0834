#include "verify/reach.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "verify/box_tree.h"
#include "verify/sfc.h"

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

  // Mark covered cells as SFC keys — Morton-interleaved when the grid
  // packs into 63 bits, flat row-major otherwise (the flat key fits by
  // construction: total <= max_cells).  The sorted-unique key set is the
  // linearized leaf level of the paving tree: dedup is a sort, and the
  // emission order is the key order — deterministic and invariant under
  // permutations of the input boxes.
  int levels = 0;
  const std::size_t widest = *std::max_element(cells.begin(), cells.end());
  while ((std::size_t{1} << levels) < widest) ++levels;
  const bool morton = sfc_fits(dim, levels);

  std::vector<std::size_t> lo_idx(dim), hi_idx(dim), idx(dim);
  std::vector<std::uint32_t> coords(dim);
  std::vector<std::uint64_t> keys;
  const auto cell_key = [&]() {
    if (morton) {
      for (std::size_t d = 0; d < dim; ++d)
        coords[d] = static_cast<std::uint32_t>(idx[d]);
      return sfc_encode(coords, levels);
    }
    std::uint64_t flat = 0, stride = 1;
    for (std::size_t d = 0; d < dim; ++d) {
      flat += idx[d] * stride;
      stride *= cells[d];
    }
    return flat;
  };
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
      keys.push_back(cell_key());
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
  for (const std::uint64_t key : keys) {
    if (morton) {
      sfc_decode(key, dim, levels, coords);
      for (std::size_t d = 0; d < dim; ++d) idx[d] = coords[d];
    } else {
      std::uint64_t rem = key;
      for (std::size_t d = 0; d < dim; ++d) {
        idx[d] = static_cast<std::size_t>(rem % cells[d]);
        rem /= cells[d];
      }
    }
    IBox cell(dim);
    for (std::size_t d = 0; d < dim; ++d)
      cell[d] = {slice_face(hull[d].lo(), hull[d].hi(), idx[d], cells[d]),
                 slice_face(hull[d].lo(), hull[d].hi(), idx[d] + 1, cells[d])};
    out.push_back(std::move(cell));
  }
  return out;
}

ReachabilityAnalyzer::ReachabilityAnalyzer(sys::SystemPtr system,
                                           const ctrl::Controller& controller,
                                           ReachConfig config)
    : system_(std::move(system)), controller_(controller),
      config_(std::move(config)),
      dynamics_(make_interval_dynamics(*system_)) {}

bool ReachabilityAnalyzer::inside_safe_region(const IBox& box) const {
  // Fail-closed shared predicate (box_tree.cpp): non-finite/invalid
  // components never count as safe — the pre-fix exclusion chain here was
  // NaN-blind and certified corrupted enclosures.
  return box_inside_region(box, system_->safe_region());
}

ReachResult ReachabilityAnalyzer::analyze(const IBox& initial) const {
  util::Stopwatch timer;
  ReachResult result;
  result.layers.push_back({initial});
  NnAbstraction abstraction(controller_, config_.abstraction);
  VerificationBudget budget = config_.budget;
  const IBox u_bounds =
      make_box(system_->control_bounds().lo, system_->control_bounds().hi);
  util::WorkerScope workers(config_.num_workers);

  // The image of one work item (a frontier box, or a chunk of one box's
  // sub-boxes under fan-out): its successor boxes plus the work it
  // consumed.  Items are processed in parallel, each against a private
  // budget capped at the whole budget remaining when its *wave* started
  // (the same cap for every item of the wave), and the per-item results
  // are merged in fixed schedule order below — so counters, frontier
  // ordering, and failures are bitwise identical for any worker count.
  struct BoxImage {
    std::vector<IBox> next;
    long nn_evaluations = 0;
    long partitions = 0;
    std::string failure;  ///< non-empty when this item exhausted the cap.
  };

  // Frontier boxes are processed in fixed-size waves with the cumulative
  // budget re-checked between waves, so a run overshoots an exhausted
  // budget by at most one wave's concurrent work instead of a whole
  // frontier's (the pre-wave serial loop overshot by a single box; exact
  // serial stop points cannot survive parallel merge determinism).  The
  // wave size bounds that overshoot AND caps the sweep's concurrency, and
  // is part of the deterministic schedule: it must not depend on the
  // worker count.
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

  bool all_safe = inside_safe_region(initial);
  std::string failure;
  for (int t = 0; t < config_.steps && failure.empty(); ++t) {
    const auto& frontier = result.layers.back();
    std::vector<IBox> next;
    for (std::size_t wave = 0; wave < frontier.size() && failure.empty();
         wave += kFrontierWave) {
      const std::size_t wave_end =
          std::min(frontier.size(), wave + kFrontierWave);
      const std::size_t wave_count = wave_end - wave;
      const long nn_remaining =
          budget.max_nn_evaluations - budget.nn_evaluations;
      const long partitions_remaining =
          budget.max_partitions - budget.partitions;

      if (config_.subbox_fanout && wave_count < kFrontierWave) {
        // --- sub-box fan-out -----------------------------------------
        // A wave with fewer boxes than kFrontierWave cannot occupy the
        // pool by itself; the degenerate case is a single giant box whose
        // hundreds of sub-box enclosures previously ran serially inside
        // one work item.  Subdivide on the scheduling thread (fixed
        // order), split each box's sub-box list into at most
        // kFrontierWave contiguous chunks — a function of the counts
        // only, never of the worker count — and run the chunks as
        // independent items against wave-start budget caps.  The merge
        // concatenates images in (box, chunk) order: exactly the serial
        // enumeration, so layers/counters/failures are bitwise identical
        // across worker counts and, on completing runs, to the
        // non-fanned schedule.
        std::vector<std::vector<IBox>> subs(wave_count);
        try {
          for (std::size_t w = 0; w < wave_count; ++w)
            subs[w] = box_subdivide(frontier[wave + w],
                                    subdivision_parts(frontier[wave + w]));
        } catch (const std::invalid_argument& e) {
          failure = e.what();  // corrupted box: fail closed, never crash.
          break;
        }
        struct SubChunk {
          std::size_t slot = 0;   ///< index of the box within the wave.
          std::size_t first = 0;  ///< sub-box range [first, last).
          std::size_t last = 0;
        };
        std::vector<SubChunk> chunks;
        for (std::size_t w = 0; w < wave_count; ++w) {
          const std::size_t n = subs[w].size();
          const std::size_t grain = (n + kFrontierWave - 1) / kFrontierWave;
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
          }
          image.nn_evaluations = local.nn_evaluations;
          image.partitions = local.partitions;
        };
        util::run_chunks(workers.pool(), images.size(), process_chunk);

        // Fixed-order merge in (box, chunk) order, reconstructing each
        // frontier box's cumulative image size so the max_boxes failure
        // fires at the same box the per-box schedule reports.
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
      } else {
        // --- per-box schedule (full waves) ---------------------------
        std::vector<BoxImage> images(wave_count);
        const auto process_box = [&](std::size_t w) {
          BoxImage& image = images[w];
          VerificationBudget local;
          local.max_nn_evaluations = nn_remaining;
          local.max_partitions = partitions_remaining;
          try {
            const IBox& box = frontier[wave + w];
            // Subdivide against wrapping before abstracting the controller.
            for (const IBox& sub :
                 box_subdivide(box, subdivision_parts(box))) {
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
        util::run_chunks(workers.pool(), images.size(), process_box);

        // Fixed-order merge: charge every box's work to the shared budget,
        // keep the first failure in frontier order, and concatenate the
        // successor boxes exactly as the serial loop would have.
        for (BoxImage& image : images) {
          budget.nn_evaluations += image.nn_evaluations;
          budget.partitions += image.partitions;
          if (!failure.empty()) continue;
          if (!image.failure.empty()) {
            failure = image.failure;
            continue;
          }
          for (IBox& box : image.next) next.push_back(std::move(box));
          if (next.size() > config_.max_boxes) failure = max_boxes_failure;
        }
      }
      if (failure.empty() && budget.exhausted())
        failure = "verification budget exhausted while abstracting '" +
                  controller_.describe() +
                  "' (partitions=" + std::to_string(budget.partitions) +
                  ", nn_evals=" + std::to_string(budget.nn_evaluations) + ")";
    }
    if (!failure.empty()) break;

    // Bound the frontier: re-pave onto a regular grid once it grows past
    // the merge threshold (sound union cover, emitted in SFC key order).
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
    // Key the next layer: the layer-wide safe sweep is a pruned BoxTree
    // descent (hull short-circuits accept whole subtrees) instead of a
    // flat scan, deciding with the same fail-closed box_inside_region
    // predicate as the per-box path.
    const BoxTree layer_tree = BoxTree::build(next);
    if (!layer_tree.all_inside(system_->safe_region())) all_safe = false;
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
