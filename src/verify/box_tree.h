// Morton-sorted bounding-volume hierarchy over interval boxes (the reach
// frontier; keys in verify/sfc.h), after the cstone recipe: sort by Morton
// key, build bottom-up in fixed key order, answer queries by pruned
// descent.
//
// BoxTree leaves hold runs of boxes sorted by the SFC key of their midpoint
// (ties broken by input index — the build is a pure function of the input
// sequence); internal nodes carry exact min/max hulls.  Hulls prune, but
// every accepting answer re-checks the exact stored endpoints, so
// quantization never decides membership.  (Invariant member sets are not
// indexed here: serving asks a window-count question that
// verify::InvariantIndex answers with a summed-area table.)
//
// Soundness: non-finite/invalid box components *taint* their subtree —
// tainted hulls never short-circuit an accepting answer, and the per-box
// predicates fail closed on NaN (box_inside_region mirrors the
// SafetyMonitor::certified fix).  NaN-safe hull folding skips invalid
// components so one corrupted box cannot poison pruning for valid
// siblings.
//
// Determinism: the build is serial, bottom-up, in sorted key order —
// bitwise-identical trees for any worker count, so tree-backed verdicts
// inherit the repo's worker-invariance contract.  The tree is immutable
// after build(); concurrent const queries need no lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/vec.h"
#include "sys/system.h"
#include "verify/interval.h"
#include "verify/sfc.h"

namespace cocktail::verify {

/// Fail-closed box-in-region test: every component must be finite and
/// valid (NaN/Inf certify nothing), and inside the region on every bounded
/// dimension (unbounded region dimensions always pass).  The one predicate
/// behind ReachabilityAnalyzer's safe-region sweep, per-box and tree-wide.
[[nodiscard]] bool box_inside_region(const IBox& box, const sys::Box& region);

/// Morton-sorted bounding-volume hierarchy over interval boxes.
class BoxTree {
 public:
  /// Empty tree: contains no point, intersects nothing, and all_inside()
  /// is vacuously true.
  BoxTree() = default;

  /// Builds the hierarchy; a pure function of the box sequence (keys sort
  /// with input-index tie-breaks).  Throws std::invalid_argument on mixed
  /// box dimensions.  Non-finite/invalid boxes are admitted but tainted:
  /// they satisfy no query and disable hull short-circuits above them.
  [[nodiscard]] static BoxTree build(std::vector<IBox> boxes);

  [[nodiscard]] std::size_t size() const noexcept { return boxes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return boxes_.empty(); }
  [[nodiscard]] const std::vector<IBox>& boxes() const noexcept {
    return boxes_;
  }

  /// True iff some box contains `point` (exact endpoint comparisons;
  /// non-finite points and dimension mismatches fail closed).
  [[nodiscard]] bool contains_point(const la::Vec& point) const;

  /// Ascending input indices of every box intersecting `query` (exact
  /// Interval::intersects per dimension; NaN components intersect
  /// nothing).  Empty on a dimension mismatch.
  [[nodiscard]] std::vector<std::size_t> intersecting(const IBox& query) const;

  /// True iff every box passes box_inside_region(box, region).  Untainted
  /// subtrees whose hull lies inside `region` accept without descending;
  /// everything else is decided at the leaves by the exact predicate.
  [[nodiscard]] bool all_inside(const sys::Box& region) const;

 private:
  struct Node {
    IBox hull;                ///< NaN-safe min/max fold of the subtree.
    std::int32_t left = -1;   ///< internal: children; leaf: -1.
    std::int32_t right = -1;
    std::size_t begin = 0;    ///< leaf: range into order_.
    std::size_t end = 0;
    bool tainted = false;     ///< subtree holds a non-finite/invalid box.
  };

  std::size_t dim_ = 0;
  std::vector<IBox> boxes_;
  std::vector<std::size_t> order_;  ///< leaf order: Morton-sorted indices.
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace cocktail::verify
