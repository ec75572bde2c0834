#include "serve/controller_server.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace cocktail::serve {
namespace {

// Monotonic running max, relaxed per the Entry memory-order audit: the slot
// is a standalone metric, so atomicity (no lost update between the load and
// the CAS — compare_exchange_weak reloads `seen` on failure and the loop
// re-checks `seen < value`) is all that is required; no ordering with other
// memory is implied or needed.
void bump_max(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (seen < value &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

ControllerServer::ControllerServer(ServeConfig config,
                                   std::shared_ptr<MetricsRegistry> metrics)
    : config_(config),
      inline_bound_(std::max(1U, std::thread::hardware_concurrency())),
      workers_(config.num_workers),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_shared<MetricsRegistry>()) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.num_shards == 0) config_.num_shards = 1;
  if (config_.shard_capacity == 0) config_.shard_capacity = 1;
  config_.num_dispatchers =
      std::clamp<std::size_t>(config_.num_dispatchers, 1, config_.num_shards);
}

ControllerServer::~ControllerServer() { stop(); }

void ControllerServer::register_controller(
    const std::string& name, std::shared_ptr<const ctrl::NnController> primary,
    ctrl::ControllerPtr fallback, SafetyMonitor monitor) {
  if (primary == nullptr || fallback == nullptr)
    throw std::invalid_argument(
        "ControllerServer: a served controller needs both a primary network "
        "and a fallback expert");
  if (fallback->state_dim() != primary->state_dim() ||
      fallback->control_dim() != primary->control_dim())
    throw std::invalid_argument(
        "ControllerServer: fallback dimensions do not match the primary "
        "network for '" + name + "'");
  auto entry = std::make_unique<Entry>();
  entry->primary = std::move(primary);
  entry->fallback = std::move(fallback);
  entry->monitor = std::move(monitor);
  const std::string prefix = "serve." + name;
  entry->primary_count = metrics_->counter(prefix + ".primary");
  entry->fallback_count = metrics_->counter(prefix + ".fallback");
  entry->batch_count = metrics_->counter(prefix + ".batches");
  entry->latency = metrics_->histogram(prefix + ".latency_us");
  entry->shards.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<ShardState>(config_.shard_capacity);
    const std::string shard_prefix = prefix + ".shard" + std::to_string(s);
    shard->accepted = metrics_->counter(shard_prefix + ".accepted");
    shard->shed = metrics_->counter(shard_prefix + ".shed");
    shard->rejected = metrics_->counter(shard_prefix + ".rejected");
    entry->shards.push_back(std::move(shard));
  }

  util::MutexLock lock(registry_mutex_);
  if (stopping_.load())
    throw std::runtime_error(
        "ControllerServer::register_controller after stop()");
  const auto [it, inserted] = entries_.emplace(name, std::move(entry));
  if (!inserted)
    throw std::invalid_argument("ControllerServer: '" + name +
                                "' is already registered");
  // Spawn the dispatchers under registry_mutex_ so stop() — which flips
  // stopping_ and joins under the same lock — either runs before this
  // registration (we threw above) or after the threads exist and will be
  // joined.  Dispatchers never take registry_mutex_, so holding it here
  // cannot deadlock with them.
  Entry* raw = it->second.get();
  raw->dispatchers.reserve(config_.num_dispatchers);
  for (std::size_t d = 0; d < config_.num_dispatchers; ++d)
    raw->dispatchers.push_back(std::make_unique<DispatcherState>());
  for (std::size_t d = 0; d < config_.num_dispatchers; ++d)
    raw->dispatchers[d]->thread =
        std::thread([this, raw, d] { dispatch_loop(*raw, d); });
}

ControllerServer::Entry& ControllerServer::find_entry(
    const std::string& name) const {
  util::MutexLock lock(registry_mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument("ControllerServer: unknown controller '" +
                                name + "'");
  return *it->second;
}

std::future<la::Vec> ControllerServer::submit(const std::string& name,
                                              la::Vec state) {
  Entry& entry = find_entry(name);
  if (state.size() != entry.primary->state_dim())
    throw std::invalid_argument(
        "ControllerServer::submit: state dimension mismatch for '" + name +
        "'");
  Request request;
  // Routing is decided per request at submission: the certificate either
  // covers this exact state or the fallback answers.  Batch composition can
  // never influence it.
  request.to_fallback = !entry.monitor.certified(state);
  request.state = std::move(state);
  std::future<la::Vec> future = request.result.get_future();
  const std::size_t num_shards = entry.shards.size();
  const std::size_t home = static_cast<std::size_t>(entry.next_shard.fetch_add(
                               1, std::memory_order_relaxed)) %
                           num_shards;

  // Admission gate — see the shutdown-handshake audit in the header.  No
  // lock is held anywhere below.
  const std::uint64_t in_flight = pending_.fetch_add(1);
  if (stopping_.load()) {
    release(1);
    entry.shards[home]->rejected->increment();
    request.result.set_exception(
        std::make_exception_ptr(RejectedError(RejectReason::kShutdown)));
    return future;
  }
  request.accepted_at = std::chrono::steady_clock::now();
  if (in_flight < inline_bound_) {
    // Caller-runs: with a core to spare, answering here beats any hand-off.
    entry.shards[home]->accepted->increment();
    execute_inline(entry, request);
    entry.latency->record_us(
        elapsed_us(request.accepted_at, std::chrono::steady_clock::now()));
    release(1);
    return future;
  }
  for (std::size_t k = 0; k < num_shards; ++k) {
    const std::size_t s = (home + k) % num_shards;
    if (entry.shards[s]->queue.try_push(std::move(request))) {
      entry.shards[s]->accepted->increment();
      entry.dispatchers[s % entry.dispatchers.size()]->bell.ring();
      return future;
    }
  }
  // Every ring is full: shed.  The request was never published, so back
  // out the in-flight count and resolve the future here.
  release(1);
  entry.shards[home]->shed->increment();
  request.result.set_exception(
      std::make_exception_ptr(RejectedError(RejectReason::kQueueFull)));
  return future;
}

la::Vec ControllerServer::answer(const Entry& entry, const la::Vec& state,
                                 bool certified, bool& by_primary) {
  by_primary = certified;
  if (certified) {
    la::Vec action = entry.primary->act(state);
    // Fail closed: a non-finite primary action is never served.
    if (la::all_finite(action)) return action;
    by_primary = false;
  }
  return entry.fallback->act(state);
}

la::Vec ControllerServer::act_reference(const std::string& name,
                                        const la::Vec& state) const {
  const Entry& entry = find_entry(name);
  if (state.size() != entry.primary->state_dim())
    throw std::invalid_argument(
        "ControllerServer::act_reference: state dimension mismatch for '" +
        name + "'");
  bool by_primary = false;
  return answer(entry, state, entry.monitor.certified(state), by_primary);
}

ServeCounters ControllerServer::counters(const std::string& name) const {
  const Entry& entry = find_entry(name);
  ServeCounters out;
  out.primary = entry.primary_count->value();
  out.fallback = entry.fallback_count->value();
  out.batches = entry.batch_count->value();
  out.max_batch_rows = entry.max_batch_rows.load(std::memory_order_relaxed);
  out.shards.reserve(entry.shards.size());
  for (const auto& shard : entry.shards) {
    AdmissionCounters a;
    a.accepted = shard->accepted->value();
    a.shed = shard->shed->value();
    a.rejected = shard->rejected->value();
    out.accepted += a.accepted;
    out.shed += a.shed;
    out.rejected += a.rejected;
    out.shards.push_back(a);
  }
  return out;
}

void ControllerServer::execute_inline(Entry& entry, Request& request) {
  bool by_primary = false;
  try {
    request.result.set_value(
        answer(entry, request.state, !request.to_fallback, by_primary));
  } catch (...) {
    request.result.set_exception(std::current_exception());
  }
  if (!request.to_fallback) {
    entry.batch_count->increment();
    bump_max(entry.max_batch_rows, 1);
  }
  (by_primary ? entry.primary_count : entry.fallback_count)->increment();
}

void ControllerServer::fall_back(Entry& entry, Request& request) {
  entry.fallback_count->increment();
  try {
    request.result.set_value(entry.fallback->act(request.state));
  } catch (...) {
    request.result.set_exception(std::current_exception());
  }
}

void ControllerServer::execute_slice(Entry& entry,
                                     std::vector<Request>& slice) {
  // Partition the slice: fallback requests run per sample (a fallback is an
  // arbitrary Controller with no batch path); certified requests form one
  // GEMM batch, preserving arrival order.  All requests in a slice belong
  // to `entry` — each dispatcher serves exactly one controller.
  std::vector<Request*> fallbacks;
  std::vector<Request*> rows;
  fallbacks.reserve(slice.size());
  rows.reserve(slice.size());
  for (Request& request : slice)
    (request.to_fallback ? fallbacks : rows).push_back(&request);

  util::ThreadPool* pool = workers_.pool();
  util::run_chunks(pool, fallbacks.size(),
                   [&](std::size_t i) { fall_back(entry, *fallbacks[i]); });
  if (rows.empty()) return;

  entry.batch_count->increment();
  bump_max(entry.max_batch_rows, rows.size());
  // Rows are independent and each row is bitwise identical to the scalar
  // path, so slicing the batch across workers cannot change any answer.
  // Every chunk covers a non-empty [lo, hi) — act_batch (and through it
  // Matrix::from_rows, which rejects empty input) never sees an empty
  // slice.
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  const std::size_t grain = (rows.size() + workers - 1) / workers;
  const std::size_t chunks = (rows.size() + grain - 1) / grain;
  util::run_chunks(pool, chunks, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(rows.size(), lo + grain);
    std::vector<la::Vec> states;
    states.reserve(hi - lo);
    // The state is dead once the batch is assembled: move, don't copy.
    for (std::size_t i = lo; i < hi; ++i)
      states.push_back(std::move(rows[i]->state));
    std::vector<la::Vec> actions;
    try {
      actions = entry.primary->act_batch(states);
    } catch (...) {
      entry.primary_count->add(hi - lo);
      for (std::size_t i = lo; i < hi; ++i)
        rows[i]->result.set_exception(std::current_exception());
      return;
    }
    std::uint64_t served = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (la::all_finite(actions[i - lo])) {
        ++served;
        rows[i]->result.set_value(std::move(actions[i - lo]));
      } else {
        // Fail closed, as act_reference does.
        rows[i]->state = std::move(states[i - lo]);
        fall_back(entry, *rows[i]);
      }
    }
    entry.primary_count->add(served);
  });
}

void ControllerServer::dispatch_loop(Entry& entry,
                                     std::size_t dispatcher_index) {
  const std::size_t num_shards = entry.shards.size();
  const std::size_t num_dispatchers = entry.dispatchers.size();
  util::Doorbell& bell = entry.dispatchers[dispatcher_index]->bell;

  // Dispatcher d owns shards {s : s mod D == d}: no two dispatchers ever
  // pop the same ring, and no lock is shared across dispatchers.
  const auto owned_nonempty = [&] {
    for (std::size_t s = dispatcher_index; s < num_shards;
         s += num_dispatchers)
      if (!entry.shards[s]->queue.empty()) return true;
    return false;
  };
  // Round-robin one pop per owned shard per lap, until the slice is full or
  // every owned shard reads empty.
  const auto drain_owned = [&](std::vector<Request>& slice) {
    bool popped_any = true;
    while (slice.size() < config_.max_batch && popped_any) {
      popped_any = false;
      for (std::size_t s = dispatcher_index; s < num_shards;
           s += num_dispatchers) {
        if (slice.size() >= config_.max_batch) break;
        Request request;
        if (entry.shards[s]->queue.try_pop(request)) {
          slice.push_back(std::move(request));
          popped_any = true;
        }
      }
    }
  };

  std::vector<Request> slice;
  slice.reserve(config_.max_batch);
  for (;;) {
    slice.clear();
    drain_owned(slice);
    if (slice.empty()) {
      if (retiring_.load()) return;
      bell.wait([&] { return owned_nonempty() || retiring_.load(); });
      continue;
    }
    execute_slice(entry, slice);
    const auto done = std::chrono::steady_clock::now();
    for (const Request& request : slice)
      entry.latency->record_us(elapsed_us(request.accepted_at, done));
    release(slice.size());
  }
}

void ControllerServer::release(std::uint64_t answered) {
  // Wake drain() when this was the last outstanding work anywhere.
  if (pending_.fetch_sub(answered) == answered) drain_bell_.ring();
}

void ControllerServer::drain() {
  // release() rings after the decrement that reaches zero.
  drain_bell_.wait([&] { return pending_.load() == 0; });
}

void ControllerServer::stop() {
  {
    // Under the lock, so a racing register_controller either finishes
    // first (its dispatchers are joined below) or sees stopping_ and throws.
    util::MutexLock lock(registry_mutex_);
    stopping_.store(true);
  }
  drain();
  util::MutexLock lock(registry_mutex_);
  retiring_.store(true);
  for (auto& [name, entry] : entries_) {
    for (auto& dispatcher : entry->dispatchers) dispatcher->bell.ring();
  }
  for (auto& [name, entry] : entries_) {
    for (auto& dispatcher : entry->dispatchers) {
      if (dispatcher->thread.joinable()) dispatcher->thread.join();
    }
  }
}

}  // namespace cocktail::serve
