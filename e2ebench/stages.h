// The three stages of a Cocktail controller's life that the benchmark
// drives through the library's public functions (README.md here says why
// each exists and which layer metrics should move which stage metric).
//
// Each stage has a set-up, built from the workload seed before any timing,
// and two ways to run.  Untraced, the caller runs round() repeatedly (the
// first round is the warm-up) and report() turns the rounds into end-to-end
// metrics and output checks.  trace() runs a round untraced, then traced,
// checks that both produce the same outputs, and reports per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>

#include "common.h"
#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "core/distiller.h"
#include "sys/vanderpol.h"
#include "verify/invariant.h"

namespace e2e {

/// Least number of timed rounds a stage reports, after its warm-up round.
inline constexpr int kMinRounds = 5;

/// Worker threads every stage pins (library `num_workers`, PPO env shards,
/// reachability workers).  With the calling thread waiting, a stage never
/// runs more than kWorkers + 1 threads at once.
inline constexpr int kWorkers = 2;

// ---- verification subjects shared by certify and serve ----------------------

/// The invariant-set settings of the paper's Fig 3.
[[nodiscard]] cocktail::verify::InvariantConfig fig3_config();
/// Distillation of a fixed verification subject (fixed seed, small data).
[[nodiscard]] cocktail::core::DistillConfig subject_distill_config();
/// The fixed Van der Pol teacher, LQR with Q = 10 I, R = 0.1 I.
[[nodiscard]] cocktail::ctrl::LqrController vdp_teacher(
    const cocktail::sys::VanDerPol& vdp);
/// The fixed robust Van der Pol κ* (L ≈ 13).
[[nodiscard]] std::shared_ptr<const cocktail::ctrl::NnController>
distill_vdp_kstar(const cocktail::sys::VanDerPol& vdp);

/// One stage of the benchmark.
class Stage {
 public:
  virtual ~Stage() = default;
  /// Runs one untraced round and keeps its outputs.  The first round is
  /// the warm-up: report() checks its outputs but does not time it.
  virtual void round() = 0;
  /// End-to-end metrics and output checks over the rounds run so far
  /// (at least 2).
  virtual void report(Record& record) const = 0;
  /// The traced run: per-layer metrics, for about `seconds`.
  virtual void trace(Record& record, double seconds) const = 0;
  /// Timed rounds the caller runs at least, after the warm-up.
  [[nodiscard]] virtual int min_rounds() const { return kMinRounds; }
};

class DesignStage final : public Stage {
 public:
  explicit DesignStage(std::uint64_t seed);
  ~DesignStage() override;
  void round() override;
  void report(Record& record) const override;
  void trace(Record& record, double seconds) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class CertifyStage final : public Stage {
 public:
  explicit CertifyStage(std::uint64_t seed);
  ~CertifyStage() override;
  void round() override;
  void report(Record& record) const override;
  void trace(Record& record, double seconds) const override;
  /// Above the floor: a round takes about 1.1 s, and its short serial
  /// invariant pass (0.3-0.4 s) moved most from run to run at 5 rounds.
  [[nodiscard]] int min_rounds() const override { return 8; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class ServeStage final : public Stage {
 public:
  explicit ServeStage(std::uint64_t seed);
  ~ServeStage() override;
  void round() override;
  void report(Record& record) const override;
  void trace(Record& record, double seconds) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace e2e
