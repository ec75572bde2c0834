// Control-invariant-set computation (Definition 1 / Fig 3).
//
// Grid fixed-point algorithm in the style of Xue & Zhan [22]: X is tiled
// into cells; a cell's one-step image (interval dynamics with the
// Bernstein-abstracted controller and worst-case Ω) is computed once, and
// cells whose image is not covered by the remaining candidate set are
// removed until a fixed point.  Any state in a surviving cell stays in the
// surviving union forever — an infinite-horizon safety certificate.
//
// The expensive phase is the per-cell controller abstraction, whose cost
// scales with the controller's Lipschitz constant (degree and partition
// growth); the wall-clock `seconds` of the result is the paper's
// verifiability metric, and budget exhaustion reproduces the κD blow-up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.h"
#include "sys/system.h"
#include "verify/interval_dynamics.h"
#include "verify/nn_abstraction.h"

namespace cocktail::verify {

struct InvariantConfig {
  std::vector<int> grid;  ///< cells per dimension (empty = 40 per dim).
  AbstractionConfig abstraction;
  VerificationBudget budget;
  int max_iterations = 200;  ///< fixed-point sweep cap.
};

struct InvariantResult {
  std::vector<int> grid;
  std::vector<char> member;  ///< flattened (dim 0 fastest); 1 = in XI.
  int iterations = 0;
  double volume_fraction = 0.0;  ///< |XI| / |X|.
  bool completed = false;
  std::string failure;
  double seconds = 0.0;   ///< verification time (Property 3).
  long nn_evaluations = 0;
  long partitions = 0;

  [[nodiscard]] std::size_t cell_count() const { return member.size(); }
  /// Geometric box of the flattened cell index.
  [[nodiscard]] IBox cell_box(const sys::Box& domain, std::size_t index) const;
};

/// Immutable membership index over a completed invariant set: the one
/// answer to "is this state (or its uncertainty ball) certified?".
///
/// covers() decides whether every cell whose closed box meets the inf-norm
/// ball [center - radius, center + radius] is a member, with cells
/// located by slices_meeting (so a state on a face needs both cells) and
/// counted by a d-dimensional summed-area table of member counts: the
/// window's member count is an inclusion-exclusion over its 2^d corners,
/// and the ball is covered iff that count equals the window's volume.  The
/// table holds prod(grid[d] + 1) uint32 counts; modular uint32 arithmetic
/// is exact because no count reaches 2^32.  There is no dimension cap.
///
/// Thread-safety: immutable after construction; concurrent covers() calls
/// need no lock.
class InvariantIndex {
 public:
  /// Indexes `result`'s member set over `domain`.  Throws
  /// std::invalid_argument when the result did not complete (its member
  /// array certifies nothing), when grid, member array and domain disagree,
  /// when a domain dimension is not a finite lo < hi, or when
  /// prod(grid) >= 2^32.
  InvariantIndex(const InvariantResult& result, sys::Box domain);

  /// True iff `center` has the index's dimension, every component and
  /// `radius` are finite, radius >= 0, the ball lies in the domain, and
  /// every cell meeting the ball is a member.  Fails closed otherwise.
  [[nodiscard]] bool covers(const la::Vec& center, double radius) const;

 private:
  std::vector<std::size_t> grid_;
  sys::Box domain_;
  /// Table stride of each dimension (dim 0 fastest, grid[d] + 1 entries).
  std::vector<std::size_t> stride_;
  /// sat_[i] = members in the cells below table point i on every axis.
  std::vector<std::uint32_t> sat_;
};

class InvariantSetComputer {
 public:
  InvariantSetComputer(sys::SystemPtr system,
                       const ctrl::Controller& controller,
                       InvariantConfig config);

  /// Runs the fixed point over the system's safe region.  Budget exhaustion
  /// is reported via result.completed = false, never thrown.
  [[nodiscard]] InvariantResult compute() const;

 private:
  sys::SystemPtr system_;
  const ctrl::Controller& controller_;
  InvariantConfig config_;
};

}  // namespace cocktail::verify
