// Serving-runtime benchmark: throughput and latency of
// serve::ControllerServer under open-loop (request flood) and closed-loop
// (plant-in-the-loop clients) traffic, on its two request paths — answered
// inline on the submitting thread, and forced past the in-flight bound into
// the queued path, swept over micro-batch size, worker count, dispatcher
// count, and MPMC queue shards — plus a simulated million-client open-loop
// run that floods deliberately small shard rings on the queued path and
// proves the admission accounting exact (accepted + shed + rejected ==
// submitted, client-side tallies == server counters).
//
// Forcing the overflow: inline_bound() extra threads each hold an inline
// slot inside a gated fallback of a separate "hold" controller for the
// whole measurement, so every measured request takes the queued path.
//
// Self-contained and cold-cache friendly: the served network is a synthetic
// student on the Van der Pol plant with an LQR fallback, so no trained
// artifacts are needed.  Reported per configuration: QPS (total and
// per-dispatcher), p50/p99/p999 latency, shed rate, and the
// primary/fallback/batch counters.  Answers are bitwise independent of the
// configuration (the serving determinism contract), so the sweep measures
// cost only.
//
// Like bench_micro, every run leaves a machine-readable trajectory point
// (default BENCH_serve.json, --out=<path>) that the Release CI job uploads
// as an artifact.  NOTE on scaling curves: QPS-vs-dispatchers wall-clock
// curves are meaningful on multi-core hardware only — on a single-core
// host the dispatcher fan-out is confirmed by the exact per-shard counters
// and CPU-time splits, not by wall-clock speedup.
//
// Usage: bench_serve [--requests N] [--clients C] [--steps T]
//                    [--flood N] [--out=PATH]
//        bench_serve --smoke        (tiny counts; the CI Release smoke run)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "control/lqr_controller.h"
#include "control/nn_controller.h"
#include "nn/mlp.h"
#include "serve/controller_server.h"
#include "serve/metrics.h"
#include "serve/safety_monitor.h"
#include "sys/vanderpol.h"
#include "util/csv.h"
#include "util/paths.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace cocktail;

struct Options {
  int requests = 20000;   ///< open-loop requests per configuration.
  int clients = 8;        ///< concurrent submitter threads.
  int steps = 200;        ///< closed-loop plant steps per client.
  long flood = 1000000;   ///< simulated clients in the admission-flood run.
};

struct SweepPoint {
  bool overflow;  ///< every inline slot held: the queued path answers.
  std::size_t max_batch;
  int num_workers;
  std::size_t num_dispatchers;
  std::size_t num_shards;

  [[nodiscard]] const char* path() const {
    return overflow ? "overflow" : "inline";
  }
};

struct Measured {
  double seconds = 0.0;
  serve::ServeCounters counters;
  std::vector<double> latencies_us;  ///< sorted after measure().

  [[nodiscard]] double qps() const {
    return seconds > 0.0 ? static_cast<double>(latencies_us.size()) / seconds
                         : 0.0;
  }
  [[nodiscard]] double percentile(double p) const {
    if (latencies_us.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[rank];
  }
};

/// One row of BENCH_serve.json: a sweep point (or the flood run) with its
/// measured throughput/latency/admission numbers.
struct TrajectoryRow {
  std::string name;
  std::string mode;
  SweepPoint point{};
  long requests = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  serve::ServeCounters counters;

  [[nodiscard]] double qps_per_dispatcher() const {
    return point.num_dispatchers > 0
               ? qps / static_cast<double>(point.num_dispatchers)
               : qps;
  }
  [[nodiscard]] double shed_rate() const {
    const double submitted = static_cast<double>(
        counters.accepted + counters.shed + counters.rejected);
    return submitted > 0.0 ? static_cast<double>(counters.shed) / submitted
                           : 0.0;
  }
};

serve::ServeConfig make_config(const SweepPoint& point) {
  serve::ServeConfig config;
  config.max_batch = point.max_batch;
  config.num_workers = point.num_workers;
  config.num_dispatchers = point.num_dispatchers;
  config.num_shards = point.num_shards;
  return config;
}

std::shared_ptr<const ctrl::NnController> make_student() {
  nn::Mlp net = nn::Mlp::make(2, {24}, 1, nn::Activation::kTanh,
                              nn::Activation::kIdentity, 7);
  return std::make_shared<const ctrl::NnController>(std::move(net),
                                                    la::Vec{1.0}, "k*");
}

void register_vdp(serve::ControllerServer& server, const sys::VanDerPol& vdp) {
  server.register_controller(
      "vdp", make_student(),
      std::make_shared<ctrl::LqrController>(
          ctrl::LqrController::synthesize(vdp, 1.0, 0.5)),
      serve::SafetyMonitor::inside_box(vdp.safe_region(), 0.05));
}

/// Fallback that counts its calls and blocks until its gate opens.
class GateController final : public ctrl::Controller {
 public:
  GateController(std::shared_ptr<std::atomic<std::size_t>> started,
                 std::shared_future<void> gate)
      : started_(std::move(started)), gate_(std::move(gate)) {}
  [[nodiscard]] la::Vec act(const la::Vec&) const override {
    started_->fetch_add(1);
    gate_.wait();
    return la::Vec{0.0};
  }
  [[nodiscard]] std::size_t state_dim() const override { return 2; }
  [[nodiscard]] std::size_t control_dim() const override { return 1; }
  [[nodiscard]] std::string describe() const override { return "gate"; }

 private:
  std::shared_ptr<std::atomic<std::size_t>> started_;
  std::shared_future<void> gate_;
};

/// While alive with `engage`, holds every inline slot of `server`:
/// inline_bound() threads block inside a gated "hold" controller, so every
/// other request takes the queued path.
class OverflowHold {
 public:
  OverflowHold(serve::ControllerServer& server, bool engage) {
    if (!engage) return;
    auto started = std::make_shared<std::atomic<std::size_t>>(0);
    server.register_controller(
        "hold", make_student(),
        std::make_shared<GateController>(started, open_.get_future().share()),
        serve::SafetyMonitor());  // certifies nothing: every request gates.
    const std::size_t slots = server.inline_bound();
    for (std::size_t k = 0; k < slots; ++k)
      holders_.emplace_back(
          [&server] { (void)server.submit("hold", {0.0, 0.0}).get(); });
    while (started->load() < slots) std::this_thread::yield();
  }
  OverflowHold(const OverflowHold&) = delete;
  OverflowHold& operator=(const OverflowHold&) = delete;
  ~OverflowHold() { release(); }

  void release() {
    if (holders_.empty()) return;
    open_.set_value();
    for (auto& holder : holders_) holder.join();
    holders_.clear();
  }

 private:
  std::promise<void> open_;
  std::vector<std::thread> holders_;
};

/// Request flood: `clients` threads submit pre-sampled states as fast as
/// the server accepts them; latency is submit()→get() per request.
Measured open_loop(const Options& options, const SweepPoint& point) {
  const sys::VanDerPol vdp;
  serve::ControllerServer server(make_config(point));
  register_vdp(server, vdp);
  const OverflowHold hold(server, point.overflow);

  util::Rng rng(424242);
  std::vector<la::Vec> states;
  states.reserve(static_cast<std::size_t>(options.requests));
  const sys::Box sampling = vdp.sampling_region();
  for (int k = 0; k < options.requests; ++k)
    states.push_back(sampling.sample(rng));

  Measured measured;
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(options.clients));
  util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      auto& latencies = per_client[static_cast<std::size_t>(c)];
      for (std::size_t i = static_cast<std::size_t>(c); i < states.size();
           i += static_cast<std::size_t>(options.clients)) {
        const auto start = std::chrono::steady_clock::now();
        la::Vec action = server.submit("vdp", states[i]).get();
        const auto stop = std::chrono::steady_clock::now();
        (void)action;
        latencies.push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  measured.seconds = timer.seconds();
  measured.counters = server.counters("vdp");
  for (auto& latencies : per_client)
    measured.latencies_us.insert(measured.latencies_us.end(),
                                 latencies.begin(), latencies.end());
  std::sort(measured.latencies_us.begin(), measured.latencies_us.end());
  return measured;
}

/// Plant-in-the-loop: each client simulates its own Van der Pol episode and
/// must wait for the served action before it can step — the serving pattern
/// where latency, not throughput, gates control quality.
Measured closed_loop(const Options& options, const SweepPoint& point) {
  const sys::VanDerPol vdp;
  serve::ControllerServer server(make_config(point));
  register_vdp(server, vdp);
  const OverflowHold hold(server, point.overflow);

  Measured measured;
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(options.clients));
  util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(7000 + static_cast<std::uint64_t>(c));
      la::Vec s = vdp.sample_initial_state(rng);
      auto& latencies = per_client[static_cast<std::size_t>(c)];
      for (int t = 0; t < options.steps; ++t) {
        const auto start = std::chrono::steady_clock::now();
        const la::Vec u = server.submit("vdp", s).get();
        const auto stop = std::chrono::steady_clock::now();
        latencies.push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
        s = vdp.step(s, vdp.clip_control(u), vdp.sample_disturbance(rng));
        if (!vdp.is_safe(s)) s = vdp.sample_initial_state(rng);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  measured.seconds = timer.seconds();
  measured.counters = server.counters("vdp");
  for (auto& latencies : per_client)
    measured.latencies_us.insert(measured.latencies_us.end(),
                                 latencies.begin(), latencies.end());
  std::sort(measured.latencies_us.begin(), measured.latencies_us.end());
  return measured;
}

/// The simulated million-client admission flood: `flood` logical clients
/// (one request each) are multiplexed over `clients` submitter threads
/// against deliberately tiny shard rings, with every inline slot held so
/// the queued path's load shedding genuinely happens.  Each thread keeps a
/// bounded window of outstanding futures — submission never waits on an
/// answer, which is what makes the run open-loop — and tallies
/// answered/shed client-side.  Returns false (and
/// prints why) if the admission accounting is not exact: every submission
/// must land in exactly one of {accepted, shed, rejected}, the client-side
/// tallies must equal the server counters, and the per-shard breakdown must
/// sum to the totals.  Latency quantiles come from the server's own
/// MetricsRegistry histogram (accept→answer), not client buffers — a
/// million latencies would be measurement ballast.
bool admission_flood(const Options& options, TrajectoryRow& row) {
  const sys::VanDerPol vdp;
  row.point = {true, 32, 1, 2, 4};
  serve::ServeConfig config = make_config(row.point);
  config.shard_capacity = 64;  // tiny rings: the flood must shed.
  serve::ControllerServer server(config);
  register_vdp(server, vdp);
  OverflowHold hold(server, row.point.overflow);

  const long total = options.flood;
  const int threads_n = options.clients;
  constexpr std::size_t kWindow = 256;  // outstanding futures per thread.

  std::vector<long> answered(static_cast<std::size_t>(threads_n), 0);
  std::vector<long> shed(static_cast<std::size_t>(threads_n), 0);
  std::vector<long> submitted(static_cast<std::size_t>(threads_n), 0);

  util::Stopwatch timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < threads_n; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t tc = static_cast<std::size_t>(c);
      // Each logical client submits one state; states cycle a small
      // per-thread pool so the run costs RNG time once, not per request.
      util::Rng rng(990000 + static_cast<std::uint64_t>(c));
      const sys::Box sampling = vdp.sampling_region();
      std::vector<la::Vec> states;
      for (int k = 0; k < 64; ++k) states.push_back(sampling.sample(rng));

      const long share = total / threads_n +
                         (c < static_cast<int>(total % threads_n) ? 1 : 0);
      std::vector<std::future<la::Vec>> window;
      window.reserve(kWindow);
      const auto settle = [&] {
        for (auto& future : window) {
          try {
            (void)future.get();
            ++answered[tc];
          } catch (const serve::RejectedError&) {
            ++shed[tc];
          }
        }
        window.clear();
      };
      for (long k = 0; k < share; ++k) {
        window.push_back(
            server.submit("vdp", states[static_cast<std::size_t>(k) % 64]));
        ++submitted[tc];
        if (window.size() == kWindow) settle();
      }
      settle();
    });
  }
  for (auto& thread : threads) thread.join();
  hold.release();
  server.drain();
  row.seconds = timer.seconds();

  long client_answered = 0, client_shed = 0, client_submitted = 0;
  for (int c = 0; c < threads_n; ++c) {
    client_answered += answered[static_cast<std::size_t>(c)];
    client_shed += shed[static_cast<std::size_t>(c)];
    client_submitted += submitted[static_cast<std::size_t>(c)];
  }
  row.counters = server.counters("vdp");
  row.requests = client_submitted;
  row.qps = row.seconds > 0.0
                ? static_cast<double>(client_answered) / row.seconds
                : 0.0;

  // Accept→answer latency from the serving tier's own metrics registry.
  const serve::MetricsSnapshot snap = server.metrics().snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "serve.vdp.latency_us") {
      row.p50_us = h.q.p50_us;
      row.p99_us = h.q.p99_us;
      row.p999_us = h.q.p999_us;
    }
  }

  // Exactness: the whole point of the run.
  bool exact = true;
  const auto check = [&exact](bool ok, const char* what, long lhs, long rhs) {
    if (!ok) {
      std::fprintf(stderr, "admission-flood accounting VIOLATION: %s (%ld vs %ld)\n",
                   what, lhs, rhs);
      exact = false;
    }
  };
  const long server_submitted = static_cast<long>(
      row.counters.accepted + row.counters.shed + row.counters.rejected);
  check(client_submitted == total, "submitted == requested flood",
        client_submitted, total);
  check(server_submitted == client_submitted,
        "accepted + shed + rejected == submitted", server_submitted,
        client_submitted);
  check(static_cast<long>(row.counters.accepted) == client_answered,
        "server accepted == client answered",
        static_cast<long>(row.counters.accepted), client_answered);
  check(static_cast<long>(row.counters.shed) == client_shed,
        "server shed == client shed", static_cast<long>(row.counters.shed),
        client_shed);
  check(row.counters.rejected == 0, "no shutdown rejections before stop()",
        static_cast<long>(row.counters.rejected), 0);
  check(static_cast<long>(row.counters.primary + row.counters.fallback) ==
            client_answered,
        "primary + fallback == answered",
        static_cast<long>(row.counters.primary + row.counters.fallback),
        client_answered);
  long by_shard_accepted = 0, by_shard_shed = 0;
  for (const auto& shard : row.counters.shards) {
    by_shard_accepted += static_cast<long>(shard.accepted);
    by_shard_shed += static_cast<long>(shard.shed);
  }
  check(by_shard_accepted == static_cast<long>(row.counters.accepted),
        "per-shard accepted sums to total", by_shard_accepted,
        static_cast<long>(row.counters.accepted));
  check(by_shard_shed == static_cast<long>(row.counters.shed),
        "per-shard shed sums to total", by_shard_shed,
        static_cast<long>(row.counters.shed));
  return exact;
}

std::string point_name(const char* mode, const SweepPoint& point) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%s_b%zu_w%d_d%zu_s%zu", mode,
                point.path(), point.max_batch, point.num_workers,
                point.num_dispatchers, point.num_shards);
  return buf;
}

TrajectoryRow report(util::CsvWriter& csv, const char* mode,
                     const SweepPoint& point, const Measured& measured) {
  TrajectoryRow row;
  row.name = point_name(mode, point);
  row.mode = mode;
  row.point = point;
  row.requests = static_cast<long>(measured.latencies_us.size());
  row.seconds = measured.seconds;
  row.qps = measured.qps();
  row.p50_us = measured.percentile(0.50);
  row.p99_us = measured.percentile(0.99);
  row.p999_us = measured.percentile(0.999);
  row.counters = measured.counters;
  std::printf("%-11s %8s %6zu %7d %5zu %6zu %11.0f %11.0f %9.1f %9.1f %9.1f %7llu %8llu\n",
              mode, point.path(), point.max_batch, point.num_workers,
              point.num_dispatchers, point.num_shards, row.qps,
              row.qps_per_dispatcher(), row.p50_us, row.p99_us, row.p999_us,
              static_cast<unsigned long long>(row.counters.fallback),
              static_cast<unsigned long long>(row.counters.batches));
  csv.row_text({mode, point.path(), std::to_string(point.max_batch),
                std::to_string(point.num_workers),
                std::to_string(point.num_dispatchers),
                std::to_string(point.num_shards),
                util::format_number(row.qps),
                util::format_number(row.qps_per_dispatcher()),
                util::format_number(row.p50_us),
                util::format_number(row.p99_us),
                util::format_number(row.p999_us),
                util::format_number(row.shed_rate()),
                std::to_string(row.counters.fallback),
                std::to_string(row.counters.batches)});
  return row;
}

void write_json(const std::vector<TrajectoryRow>& rows, bool smoke,
                bool flood_exact, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_serve: cannot open " << path << " for writing\n";
    return;
  }
  out.precision(12);
  out << "{\n  \"bench\": \"bench_serve\",\n  \"schema_version\": 1,\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& row = rows[i];
    out << "    {\"name\": \"" << row.name << "\", \"mode\": \"" << row.mode
        << "\", \"path\": \"" << row.point.path()
        << "\", \"max_batch\": " << row.point.max_batch
        << ", \"num_workers\": " << row.point.num_workers
        << ", \"num_dispatchers\": " << row.point.num_dispatchers
        << ", \"num_shards\": " << row.point.num_shards
        << ", \"requests\": " << row.requests
        << ", \"seconds\": " << row.seconds
        << ", \"qps\": " << row.qps
        << ", \"qps_per_dispatcher\": " << row.qps_per_dispatcher()
        << ", \"p50_us\": " << row.p50_us
        << ", \"p99_us\": " << row.p99_us
        << ", \"p999_us\": " << row.p999_us
        << ", \"shed_rate\": " << row.shed_rate()
        << ", \"accepted\": " << row.counters.accepted
        << ", \"shed\": " << row.counters.shed
        << ", \"rejected\": " << row.counters.rejected
        << ", \"fallback\": " << row.counters.fallback
        << ", \"batches\": " << row.counters.batches
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"derived\": {";
  // Headline numbers: best open/closed-loop QPS over the sweep, the flood
  // run's shed rate, and whether its exact-accounting invariant held
  // (1 = exact; the process also exits nonzero when it does not).
  double open_peak = 0.0, closed_peak = 0.0;
  double inline_p50 = 0.0, overflow_p50 = 0.0;  // best closed-loop p50s.
  const TrajectoryRow* flood = nullptr;
  for (const TrajectoryRow& row : rows) {
    if (row.mode == "open-loop") open_peak = std::max(open_peak, row.qps);
    if (row.mode == "closed-loop") {
      closed_peak = std::max(closed_peak, row.qps);
      double& p50 = row.point.overflow ? overflow_p50 : inline_p50;
      p50 = p50 > 0.0 ? std::min(p50, row.p50_us) : row.p50_us;
    }
    if (row.mode == "admission-flood") flood = &row;
  }
  out << "\n    \"open_loop_peak_qps\": " << open_peak
      << ",\n    \"closed_loop_peak_qps\": " << closed_peak
      << ",\n    \"closed_loop_inline_p50_us\": " << inline_p50
      << ",\n    \"closed_loop_overflow_p50_us\": " << overflow_p50;
  if (flood != nullptr) {
    out << ",\n    \"flood_shed_rate\": " << flood->shed_rate()
        << ",\n    \"flood_qps\": " << flood->qps
        << ",\n    \"flood_exact_accounting\": " << (flood_exact ? "true" : "false");
  }
  out << "\n  }\n}\n";
  std::cout << "bench_serve: wrote trajectory point to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next_long = [&](long fallback) {
      return i + 1 < argc ? std::atol(argv[++i]) : fallback;
    };
    if (arg == "--smoke") {
      // Tiny counts for the CI Release smoke run: exercises every sweep
      // point (and the flood accounting) end to end in seconds.
      smoke = true;
      options.requests = 200;
      options.clients = 4;
      options.steps = 20;
      options.flood = 20000;
    } else if (arg == "--requests") {
      options.requests = static_cast<int>(next_long(options.requests));
    } else if (arg == "--clients") {
      options.clients = static_cast<int>(next_long(options.clients));
    } else if (arg == "--steps") {
      options.steps = static_cast<int>(next_long(options.steps));
    } else if (arg == "--flood") {
      options.flood = next_long(options.flood);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else {
      std::fprintf(stderr,
                   "usage: bench_serve [--requests N] [--clients C] "
                   "[--steps T] [--flood N] [--out=PATH] [--smoke]\n");
      return 2;
    }
  }
  if (options.requests <= 0 || options.clients <= 0 || options.steps <= 0 ||
      options.flood <= 0) {
    std::fprintf(stderr, "bench_serve: counts must be positive\n");
    return 2;
  }

  std::printf(
      "Controller serving with certified-safety fallback: caller-runs "
      "inline path, micro-batched queued path past the in-flight bound\n"
      "open-loop: %d requests / %d clients; closed-loop: %d clients x %d "
      "steps; flood: %ld simulated clients; %u hardware threads\n\n",
      options.requests, options.clients, options.clients, options.steps,
      options.flood, std::thread::hardware_concurrency());
  std::printf("%-11s %8s %6s %7s %5s %6s %11s %11s %9s %9s %9s %7s %8s\n",
              "mode", "path", "batch", "workers", "disp", "shards", "qps",
              "qps/disp", "p50_us", "p99_us", "p999_us", "fallbk", "batches");

  util::CsvWriter csv(util::output_dir() + "/bench_serve.csv",
                      {"mode", "path", "max_batch", "num_workers",
                       "num_dispatchers", "num_shards", "qps",
                       "qps_per_dispatcher", "p50_us", "p99_us", "p999_us",
                       "shed_rate", "fallback", "batches"});

  // Inline points: callers answer their own requests while under the
  // in-flight bound, so the batching knobs only matter past it.  Overflow
  // points hold every inline slot, so the queued path answers; they cross
  // batching shapes with the dispatcher/shard grid.
  const std::vector<SweepPoint> sweep = {
      {false, 32, 1, 1, 1}, {false, 32, 2, 2, 2}, {true, 1, 1, 1, 1},
      {true, 8, 1, 1, 1},   {true, 32, 1, 1, 1},  {true, 32, 2, 1, 1},
      {true, 32, 2, 2, 2},  {true, 32, 4, 2, 4},  {true, 32, 4, 4, 8},
  };
  std::vector<TrajectoryRow> rows;
  for (const SweepPoint& point : sweep) {
    rows.push_back(report(csv, "open-loop", point, open_loop(options, point)));
    rows.push_back(
        report(csv, "closed-loop", point, closed_loop(options, point)));
  }

  // The admission flood: open-loop, small rings, exact accounting or bust.
  TrajectoryRow flood_row;
  flood_row.mode = "admission-flood";
  const bool flood_exact = admission_flood(options, flood_row);
  flood_row.name = point_name("admission-flood", flood_row.point);
  std::printf(
      "\n%-11s %ld simulated clients in %.2fs: %.0f answered/s, shed rate "
      "%.4f, p50 %.1fus p99 %.1fus p999 %.1fus — accounting %s\n",
      "flood", flood_row.requests, flood_row.seconds, flood_row.qps,
      flood_row.shed_rate(), flood_row.p50_us, flood_row.p99_us,
      flood_row.p999_us, flood_exact ? "EXACT" : "VIOLATED");
  csv.row_text({"admission-flood", flood_row.point.path(), "32", "1", "2", "4",
                util::format_number(flood_row.qps),
                util::format_number(flood_row.qps_per_dispatcher()),
                util::format_number(flood_row.p50_us),
                util::format_number(flood_row.p99_us),
                util::format_number(flood_row.p999_us),
                util::format_number(flood_row.shed_rate()),
                std::to_string(flood_row.counters.fallback),
                std::to_string(flood_row.counters.batches)});
  rows.push_back(flood_row);

  write_json(rows, smoke, flood_exact, out_path);
  std::printf("CSV written to %s\n",
              (util::output_dir() + "/bench_serve.csv").c_str());
  return flood_exact ? 0 : 1;
}
