// Controller-serving runtime: caller-runs inference with a certified-safety
// fallback, sharded micro-batches past an in-flight bound, admission
// control, and SLO metrics.
//
// κ*'s forward pass takes about a microsecond, far less than a thread
// hand-off, so submit() answers on the calling thread while fewer than
// inline_bound() requests (the host's hardware concurrency) are in flight,
// and queues to dispatcher threads only past that bound:
//
//   submit() ── in flight < bound ──► route + execute on the caller
//      │
//      └─ otherwise ── admission gate ──► MPMC shard queues ──► dispatchers
//                      (bounded depth,    (serve/mpmc_queue.h,  (micro-batch
//                       shed-with-reason)  num_shards rings)     GEMM, no lock)
//
// Each controller runs `num_dispatchers` dispatcher threads; dispatcher d
// owns shards {s : s mod D == d} and executes whatever its shards hold (up
// to `max_batch` requests) as one batch, never waiting for a batch to fill:
// past the bound there is already a backlog.  A request whose home shard
// ring is full tries the remaining shards once; if every ring is full it is
// *shed*: the future resolves to a RejectedError(kQueueFull) and the shard's
// shed counter bumps.  Requests whose state leaves the certified region, or
// whose primary action is not finite, are answered by the trusted fallback
// expert, and per-controller routing/batch/admission counters plus a
// fixed-bucket latency histogram are published through a
// serve::MetricsRegistry.
//
// Determinism: neither path changes an answer.  The inline path applies
// act_reference's rule, and forward_batch rows are bitwise identical to the
// scalar forward path, so every request receives exactly act_reference's
// action for ANY dispatcher / shard / batch-size / worker / arrival-order
// configuration — pinned by test_serve on both paths across the {1,2,4}
// dispatchers × {1,2,8} shards sweep.  Only *which path answers* and *which
// requests share a GEMM* are scheduling-dependent, and they are observable
// solely through the batch counters.  Certificate lookups route through
// SafetyMonitor's verify::outward()-backed, NaN-closed predicates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.h"
#include "control/nn_controller.h"
#include "la/vec.h"
#include "serve/metrics.h"
#include "serve/mpmc_queue.h"
#include "serve/safety_monitor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace cocktail::serve {

struct ServeConfig {
  /// Upper bound on queued requests a dispatcher executes as one batch.
  std::size_t max_batch = 32;
  /// util::WorkerScope convention for queued batch execution: 0 = shared
  /// pool, 1 = serial on the dispatcher thread, k > 1 = dedicated pool of
  /// k.  A batch splits into chunks of ceil(rows / workers) rows.
  int num_workers = 1;
  /// Dispatcher threads per registered controller.  Clamped to
  /// [1, num_shards]: a dispatcher with no shards would have nothing to do.
  std::size_t num_dispatchers = 1;
  /// MPMC submission-queue shards per registered controller.
  std::size_t num_shards = 1;
  /// Bounded depth of each shard ring (rounded up to a power of two).
  /// num_shards * shard_capacity is the admission bound of the queued
  /// path: beyond it, submissions are shed with RejectedError(kQueueFull).
  std::size_t shard_capacity = 1024;
};

/// Why an admitted-or-not request's future carries an exception instead of
/// an action.
enum class RejectReason {
  kQueueFull,  ///< load shed: every shard ring was at capacity.
  kShutdown,   ///< submitted after stop().
};

/// The exception a rejected request's future throws from get().  The
/// submit-after-shutdown contract (pinned by test_serve): submit() on a
/// stopped server returns a future that throws RejectedError(kShutdown) —
/// it does NOT throw synchronously, so flooding clients need only one error
/// path.  Programmer errors (unknown controller name, wrong state
/// dimension) still throw std::invalid_argument synchronously.
class RejectedError : public std::runtime_error {
 public:
  explicit RejectedError(RejectReason reason)
      : std::runtime_error(reason == RejectReason::kQueueFull
                               ? "ControllerServer: request shed (all shard "
                                 "queues full)"
                               : "ControllerServer: submit after stop()"),
        reason_(reason) {}
  [[nodiscard]] RejectReason reason() const noexcept { return reason_; }

 private:
  RejectReason reason_;
};

/// Per-shard admission tallies.
struct AdmissionCounters {
  std::uint64_t accepted = 0;  ///< answered inline or enqueued via this shard.
  std::uint64_t shed = 0;      ///< load-shed with this shard as home.
  std::uint64_t rejected = 0;  ///< refused after stop() with this shard as home.
};

/// Monotonic per-controller serving counters (the metrics surface).
/// Exactness: accepted + shed + rejected == submit() calls that passed
/// argument validation, and primary + fallback == accepted — guaranteed
/// once all submitters returned and their futures resolved (drain()/stop());
/// mid-flight reads may see per-counter skew.
struct ServeCounters {
  std::uint64_t primary = 0;   ///< requests answered by the served network.
  std::uint64_t fallback = 0;  ///< uncertified, or non-finite primary action.
  std::uint64_t batches = 0;   ///< primary passes (inline: a batch of one).
  std::uint64_t max_batch_rows = 0;  ///< largest primary batch observed.
  std::uint64_t accepted = 0;  ///< admitted requests (sum over shards).
  std::uint64_t shed = 0;      ///< load-shed requests (sum over shards).
  std::uint64_t rejected = 0;  ///< post-stop() rejections (sum over shards).
  std::vector<AdmissionCounters> shards;  ///< per-shard breakdown.
};

class ControllerServer {
 public:
  /// `metrics` is shared so several servers (or the caller's own
  /// instruments) can publish into one registry; pass nullptr to let the
  /// server create a private one (reachable via metrics()).
  explicit ControllerServer(ServeConfig config = {},
                            std::shared_ptr<MetricsRegistry> metrics = nullptr);
  ~ControllerServer();

  ControllerServer(const ControllerServer&) = delete;
  ControllerServer& operator=(const ControllerServer&) = delete;

  /// Registers a served controller under `name` and starts its dispatcher
  /// threads.  `primary` is the batched network (κ*), `fallback` the
  /// trusted expert answering uncertified requests; both are required,
  /// their dimensions must agree, and `name` must be new.  Registration is
  /// allowed while serving; throws std::runtime_error after stop().
  void register_controller(const std::string& name,
                           std::shared_ptr<const ctrl::NnController> primary,
                           ctrl::ControllerPtr fallback, SafetyMonitor monitor);

  /// Serves one inference request: on the calling thread (the future is
  /// ready on return) while fewer than inline_bound() requests are in
  /// flight, through the shard queues otherwise.  The future carries the
  /// action, the exception the controller threw, or a RejectedError (load
  /// shed / post-stop — see RejectedError for the pinned contract).  Safe
  /// to call from any number of threads.  Throws std::invalid_argument for
  /// an unknown name or a state of the wrong dimension.
  [[nodiscard]] std::future<la::Vec> submit(const std::string& name,
                                            la::Vec state);

  /// The pure per-request reference path, no queue, no counters: the
  /// primary's action when the monitor certifies `state` and that action
  /// is finite, the fallback's otherwise.  What submit() must
  /// bitwise-reproduce.
  [[nodiscard]] la::Vec act_reference(const std::string& name,
                                      const la::Vec& state) const;

  [[nodiscard]] ServeCounters counters(const std::string& name) const;

  /// In-flight requests (server-wide) below which submit() runs inline:
  /// the host's hardware concurrency, at least 1, read at construction.
  [[nodiscard]] std::size_t inline_bound() const noexcept {
    return inline_bound_;
  }

  /// The registry this server publishes serve.<name>.* metrics into.
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return *metrics_; }
  [[nodiscard]] std::shared_ptr<MetricsRegistry> metrics_ptr() const noexcept {
    return metrics_;
  }

  /// Blocks until every admitted request has been answered, inline ones
  /// included.
  void drain();

  /// Rejects subsequent submissions (RejectedError(kShutdown) futures),
  /// waits until every request admitted before it — queued or running
  /// inline on a caller's thread — is answered, and joins every
  /// dispatcher.  Idempotent; invoked by the destructor.
  void stop();

 private:
  // ---- Memory-order audit (for the TSan CI entry) -------------------------
  //
  // Counters/histograms: relaxed monotonic metrics — see serve/metrics.h.
  // max_batch_rows is the same class of standalone metric (relaxed CAS max).
  //
  // Shard rings: serve/mpmc_queue.h documents the acquire/release payload
  // hand-off at its declaration.
  //
  // Shutdown handshake (the "shutdown-handshake audit" mpmc_queue.h points
  // at) — two seq_cst atomics form a Dekker-style gate with NO lock held on
  // the submit fast path:
  //
  //   pending_    admitted-but-unanswered requests, inline and queued, over
  //               every controller: the in-flight count.  submit()
  //               increments it (seq_cst RMW) FIRST — the value it read
  //               picks the inline or the queued path — THEN checks
  //               stopping_.  If set, it backs out and rejects; if clear,
  //               the request is admitted and the count falls only after
  //               its future is satisfied (by the caller inline, by the
  //               dispatcher after a batch) or its shed is settled.
  //   stopping_   stop() store-true (seq_cst), then waits for
  //               pending_ == 0 (drain()), then sets retiring_ and rings
  //               and joins the dispatchers.
  //
  //   In the seq_cst total order a submitter's increment either precedes
  //   the store — then stop() reads it and waits for that request — or
  //   follows it, and the submitter then reads stopping_ and rejects.  So
  //   once stop() reads stopping_ and then pending_ == 0, no request is
  //   running, queued or about to be, and none ever will be: no admitted
  //   request is ever stranded.  (Seq_cst on both sides is what closes the
  //   store/load race the classic Dekker pattern needs; acquire/release
  //   alone would not.)  drain() waits on pending_ == 0 via drain_bell_.
  //   After that read pending_ can still rise and fall (rejected submits
  //   back out their increment), so dispatchers do not exit on it: they
  //   exit on retiring_, which stop() sets only once drain() has returned.
  //
  // Doorbells: util::Doorbell documents its own contract.  Every store a
  // sleeping waiter's predicate reads is followed by a ring: a push by its
  // shard's dispatcher bell, retiring_ by stop()'s ring of every
  // dispatcher, pending_ reaching zero by release()'s ring of drain_bell_.
  // So waits are untimed, and an idle dispatcher costs no CPU.
  // -------------------------------------------------------------------------

  struct Entry;

  struct Request {
    la::Vec state;
    bool to_fallback = false;
    std::promise<la::Vec> result;
    std::chrono::steady_clock::time_point accepted_at{};
  };

  /// One MPMC ring plus its admission tallies.  The Counter pointers alias
  /// MetricsRegistry entries (stable for the registry's lifetime) so the
  /// per-shard counters ARE the published metrics — one increment, no
  /// double bookkeeping.
  struct ShardState {
    explicit ShardState(std::size_t capacity) : queue(capacity) {}
    MpmcQueue<Request> queue;
    Counter* accepted = nullptr;
    Counter* shed = nullptr;
    Counter* rejected = nullptr;
  };

  struct DispatcherState {
    util::Doorbell bell;
    std::thread thread;
  };

  // The controller fields (primary/fallback/monitor) are immutable after
  // register_controller publishes the Entry under registry_mutex_; entries
  // are never erased and unique_ptr gives them a stable address, so
  // references handed out by find_entry stay valid without the lock.
  struct Entry {
    std::shared_ptr<const ctrl::NnController> primary;
    ctrl::ControllerPtr fallback;
    SafetyMonitor monitor;
    std::vector<std::unique_ptr<ShardState>> shards;
    std::vector<std::unique_ptr<DispatcherState>> dispatchers;
    // Round-robin home-shard cursor; relaxed — it only spreads load, and no
    // correctness property depends on its ordering.
    std::atomic<std::uint64_t> next_shard{0};
    Counter* primary_count = nullptr;   // registry-backed (relaxed monotonic)
    Counter* fallback_count = nullptr;
    Counter* batch_count = nullptr;
    std::atomic<std::uint64_t> max_batch_rows{0};
    LatencyHistogram* latency = nullptr;
  };

  [[nodiscard]] Entry& find_entry(const std::string& name) const
      COCKTAIL_EXCLUDES(registry_mutex_);
  /// act_reference's rule: the primary's action when `certified` and
  /// finite, the fallback's otherwise.  `by_primary` says which controller
  /// answered (or threw).
  [[nodiscard]] static la::Vec answer(const Entry& entry,
                                      const la::Vec& state, bool certified,
                                      bool& by_primary);
  /// Answers `request` with the fallback's action (or exception), counted.
  static void fall_back(Entry& entry, Request& request);
  void execute_inline(Entry& entry, Request& request);
  void execute_slice(Entry& entry, std::vector<Request>& slice);
  void release(std::uint64_t answered);
  void dispatch_loop(Entry& entry, std::size_t dispatcher_index);

  ServeConfig config_;
  std::size_t inline_bound_;
  util::WorkerScope workers_;
  std::shared_ptr<MetricsRegistry> metrics_;

  // registry_mutex_ covers the name -> Entry map and the dispatcher
  // lifecycle (register spawns and stop() joins under it).  The submit fast
  // path holds NO lock once it has its Entry, and stop() waits for admitted
  // requests without the lock, so neither can deadlock with submitters.
  mutable util::Mutex registry_mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_
      COCKTAIL_GUARDED_BY(registry_mutex_);

  // Shutdown/drain gate — see the memory-order audit above.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> retiring_{false};  ///< dispatchers may exit.
  util::Doorbell drain_bell_;
};

}  // namespace cocktail::serve
