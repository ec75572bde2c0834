// serve: a certified κ* answering control requests through the serving
// tier, with an LQR fallback for states its invariant set does not cover.
//
//   plant  — closed loop: each client steps its own Van der Pol plant and
//            waits for the served action before the next step;
//   stream — open loop: one generator submits on a fixed 20k/s schedule and
//            one collector waits on the answers; latency counts from each
//            request's due time, so a stall also charges the requests
//            queued behind it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "control/lqr_controller.h"
#include "serve/controller_server.h"
#include "serve/safety_monitor.h"
#include "stages.h"
#include "util/rng.h"

namespace e2e {

using namespace cocktail;

namespace {

constexpr const char* kName = "vdp";
constexpr int kPlantClients = 2;        ///< closed-loop clients.
constexpr int kEpisodes = 192;          ///< plant episodes per client per round.
constexpr int kSteps = 12;              ///< plant steps per episode.
constexpr double kStreamRate = 20000;   ///< open-loop requests per second.
constexpr std::size_t kStreamRequests = 2000;  ///< per stream round.
constexpr double kLimitUs = 1000.0;     ///< open-loop latency limit.
constexpr double kMargin = 0.02;        ///< monitor observation margin.

serve::ServeConfig serve_config() {
  serve::ServeConfig config;  // library defaults, threads pinned:
  config.num_dispatchers = 1;
  config.num_workers = 1;
  return config;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

bool bitwise_equal(const la::Vec& a, const la::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One plant round's client-side observations.
struct PlantRound {
  std::vector<double> latency_us, submit_us, wait_us;
  std::vector<la::Vec> states;  ///< every requested state (for replays).
  std::uint64_t requests = 0, fallback = 0, mismatches = 0;
  int threads = 0;  ///< live threads while the clients ran.
};

struct StreamRound {
  std::vector<double> latency_us;  ///< answer time − due time.
  std::vector<double> late_us;     ///< submit time − due time.
  std::uint64_t submitted = 0, answered = 0, shed = 0, misses = 0;
  std::uint64_t accepted = 0, server_shed = 0, rejected = 0;
  std::uint64_t batches = 0, primary = 0;
  int threads = 0;  ///< live threads while the stream ran.

  /// Every submission lands in exactly one admission bucket, and the
  /// client-side tallies match the server's.
  [[nodiscard]] bool exact() const {
    return accepted + server_shed + rejected == submitted &&
           answered == accepted && shed == server_shed;
  }
};

}  // namespace

struct ServeStage::Impl {
  std::shared_ptr<const sys::VanDerPol> vdp;
  std::shared_ptr<const ctrl::NnController> kstar;
  ctrl::ControllerPtr fallback;
  serve::SafetyMonitor monitor;
  std::vector<la::Vec> plant_starts;   ///< kPlantClients × kEpisodes.
  std::vector<la::Vec> stream_states;  ///< kStreamRequests.
  std::uint64_t disturbance_seed = 0;
  std::vector<PlantRound> plants;    ///< every round so far, warm-up first.
  std::vector<StreamRound> streams;  ///< likewise.

  std::unique_ptr<serve::ControllerServer> start_server() const {
    auto s = std::make_unique<serve::ControllerServer>(serve_config());
    s->register_controller(kName, kstar, fallback, monitor);
    return s;
  }

  /// Closed loop: every client runs its episodes for kSteps (or until the
  /// plant leaves X); identical every round.
  PlantRound plant(serve::ControllerServer& srv, bool timed_steps) const {
    const serve::ServeCounters before = srv.counters(kName);
    std::vector<PlantRound> per(kPlantClients);
    const auto client = [&](int c) {
      PlantRound& out = per[static_cast<std::size_t>(c)];
      out.threads = live_threads();  // every thread of the phase is up
      util::Rng rng(util::derive_seed(disturbance_seed, c));
      for (int e = 0; e < kEpisodes; ++e) {
        la::Vec s = plant_starts[static_cast<std::size_t>(c * kEpisodes + e)];
        for (int t = 0; t < kSteps; ++t) {
          const auto start = Clock::now();
          std::future<la::Vec> future = srv.submit(kName, s);
          const auto submitted = Clock::now();
          const la::Vec u = future.get();
          const auto answered = Clock::now();
          out.latency_us.push_back(us_between(start, answered));
          if (timed_steps) {
            out.submit_us.push_back(us_between(start, submitted));
            out.wait_us.push_back(us_between(submitted, answered));
            out.states.push_back(s);
          }
          if (out.requests++ % 8 == 0 &&
              !bitwise_equal(u, srv.act_reference(kName, s)))
            ++out.mismatches;
          s = vdp->step(s, vdp->clip_control(u), vdp->sample_disturbance(rng));
          if (!vdp->is_safe(s)) break;
        }
      }
    };
    {
      const std::jthread other(client, 1);
      client(0);
    }
    PlantRound all;
    all.threads = per[1].threads;
    for (PlantRound& p : per) {
      all.latency_us.insert(all.latency_us.end(), p.latency_us.begin(),
                            p.latency_us.end());
      all.submit_us.insert(all.submit_us.end(), p.submit_us.begin(),
                           p.submit_us.end());
      all.wait_us.insert(all.wait_us.end(), p.wait_us.begin(), p.wait_us.end());
      all.states.insert(all.states.end(), p.states.begin(), p.states.end());
      all.requests += p.requests;
      all.mismatches += p.mismatches;
    }
    all.fallback = srv.counters(kName).fallback - before.fallback;
    return all;
  }

  /// Open loop at kStreamRate: the calling thread generates, one collector
  /// thread resolves the futures in submission order.
  StreamRound stream(serve::ControllerServer& srv) const {
    const serve::ServeCounters before = srv.counters(kName);
    StreamRound out;
    const std::size_t n = stream_states.size();
    std::vector<std::future<la::Vec>> futures(n);
    std::vector<Clock::time_point> due(n);
    std::atomic<std::size_t> published{0};
    out.latency_us.resize(n);
    std::jthread collector([&] {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t seen = published.load(std::memory_order_acquire);
             seen <= i; seen = published.load(std::memory_order_acquire))
          published.wait(seen, std::memory_order_acquire);
        try {
          (void)futures[i].get();
          out.latency_us[i] = us_between(due[i], Clock::now());
          ++out.answered;
        } catch (const serve::RejectedError&) {
          out.latency_us[i] = kLimitUs * 1e3;  // a shed request misses.
          ++out.shed;
        }
      }
    });
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kStreamRate));
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    out.late_us.reserve(n);
    out.threads = live_threads();
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + period * static_cast<long>(i);
      // Spin: a sleeping generator would add its own wake-up delay, and
      // the 50 µs gap is shorter than a timer sleep's slack.
      while (Clock::now() < due[i]) std::this_thread::yield();
      out.late_us.push_back(us_between(due[i], Clock::now()));
      futures[i] = srv.submit(kName, stream_states[i]);
      published.store(i + 1, std::memory_order_release);
      published.notify_one();
    }
    collector.join();
    out.submitted = n;
    for (const double us : out.latency_us) out.misses += us > kLimitUs ? 1 : 0;
    const serve::ServeCounters after = srv.counters(kName);
    out.accepted = after.accepted - before.accepted;
    out.server_shed = after.shed - before.shed;
    out.rejected = after.rejected - before.rejected;
    out.batches = after.batches - before.batches;
    out.primary = after.primary - before.primary;
    return out;
  }
};

ServeStage::ServeStage(std::uint64_t seed) : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  s.vdp = std::make_shared<sys::VanDerPol>();
  s.kstar = distill_vdp_kstar(*s.vdp);
  const sys::Box domain = s.vdp->safe_region();
  const verify::InvariantResult xi =
      verify::InvariantSetComputer(s.vdp, *s.kstar, fig3_config()).compute();
  s.monitor = serve::SafetyMonitor::inside_invariant(xi, domain, kMargin);
  s.fallback = std::make_shared<ctrl::LqrController>(
      ctrl::LqrController::synthesize(*s.vdp, 1.0, 0.5, "lqr-fallback"));

  // Two in three plant episodes start in X0, one draw per stratum of a
  // 16×16 grid; the rest start in a cell of X that XI does not hold, so
  // their first requests go to the fallback.  Stream states are drawn over
  // the sampling region.
  util::Rng rng(util::derive_seed(seed, 22));
  std::vector<std::size_t> outside;
  for (std::size_t i = 0; i < xi.cell_count(); ++i)
    if (!xi.member[i]) outside.push_back(i);
  if (outside.empty()) throw std::runtime_error("serve: XI covers all of X");
  constexpr int kEdge = 16;  // X0 strata per axis
  constexpr int kInside = kEdge * kEdge;
  constexpr int kOutside = kPlantClients * kEpisodes - kInside;
  const sys::Box x0 = s.vdp->initial_set();
  const auto jitter = [&rng](double lo, double hi, int k, int n) {
    return lo + (hi - lo) * (k + rng.uniform()) / n;
  };
  std::vector<la::Vec> starts;
  for (int k = 0; k < kInside; ++k)
    starts.push_back({jitter(x0.lo[0], x0.hi[0], k % kEdge, kEdge),
                      jitter(x0.lo[1], x0.hi[1], k / kEdge, kEdge)});
  for (int k = 0; k < kOutside; ++k) {
    // The centre of the middle cell of each stratum: how long a start stays
    // uncertified sets the fallback share, so these starts do not vary with
    // the seed (a uniform draw inside the cell put the share's spread over
    // seeds at 0.08).  The seed still moves their disturbance streams.
    const std::size_t pick = (2 * static_cast<std::size_t>(k) + 1) *
                             outside.size() / (2 * kOutside);
    starts.push_back(verify::box_mid(xi.cell_box(domain, outside[pick])));
  }
  // Deal the starts out so every client gets both kinds.
  for (int k = 0; k < kPlantClients * kEpisodes; ++k)
    s.plant_starts.push_back(
        starts[static_cast<std::size_t>((k * 7) % (kPlantClients * kEpisodes))]);
  const sys::Box region = s.vdp->sampling_region();
  for (std::size_t k = 0; k < kStreamRequests; ++k)
    s.stream_states.push_back(region.sample(rng));
  s.disturbance_seed = util::derive_seed(seed, 23);
}

ServeStage::~ServeStage() = default;

void ServeStage::round() {
  Impl& s = *impl_;
  // Each round has its own server, so its dispatcher thread never competes
  // with the other stages' rounds.  The stream phase runs second, on a
  // server the plant phase has warmed.
  const auto server = s.start_server();
  s.plants.push_back(s.plant(*server, false));
  s.streams.push_back(s.stream(*server));
}

void ServeStage::report(Record& record) const {
  const std::vector<PlantRound>& plants = impl_->plants;
  const std::vector<StreamRound>& streams = impl_->streams;
  std::vector<double> p50, p99;
  std::uint64_t mismatches = 0;
  bool same_routing = true;
  int threads = 0;
  for (std::size_t i = 0; i < plants.size(); ++i) {
    const PlantRound& p = plants[i];
    threads = std::max(threads, p.threads);
    if (i > 0) {  // not the warm-up round
      p50.push_back(quantile(p.latency_us, 0.50));
      p99.push_back(quantile(p.latency_us, 0.99));
    }
    mismatches += p.mismatches;
    same_routing = same_routing && p.requests == plants[0].requests &&
                   p.fallback == plants[0].fallback;
    record.count_attempted(p.requests);
  }
  record.check(mismatches == 0, "serve: served actions equal act_reference");
  record.check(same_routing, "serve: plant routing repeats exactly");
  record.metric("plant_p50_us", median(p50), "us", p50.size());
  // Only the closed-loop p50 is a result: it is set by the dispatcher's
  // linger.  The p99s and the open-loop p50 stay in the record, because on
  // a shared VM they follow the host's steal bursts (README.md, "Dropped
  // metrics").
  record.info("serve.plant_p99_us", median(p99));
  record.metric("fallback_share",
                static_cast<double>(plants[0].fallback) /
                    static_cast<double>(plants[0].requests),
                "share", plants.size());

  std::vector<double> s50, s99, miss;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamRound& r = streams[i];
    threads = std::max(threads, r.threads);
    if (i > 0) {  // not the warm-up round
      s50.push_back(quantile(r.latency_us, 0.50));
      s99.push_back(quantile(r.latency_us, 0.99));
      miss.push_back(static_cast<double>(r.misses) /
                     static_cast<double>(r.submitted));
    }
    record.check(r.exact(), "serve: accepted + shed + rejected == submitted");
    record.count_attempted(r.submitted);
    record.count_failed(r.shed + r.rejected);
  }
  record.info("serve.stream_p50_us", median(s50));
  record.info("serve.stream_p99_us", median(s99));
  record.info("serve.stream_miss_share", median(miss));
  // Clients, generator, collector and dispatcher all count.
  record.check(threads <= nproc(), "serve: live threads within nproc");
  record.info("serve.threads_live_max", threads);
  record.info("serve.plant_requests_per_round",
              static_cast<double>(plants[0].requests));
}

void ServeStage::trace(Record& record, double seconds) const {
  const Impl& s = *impl_;
  // Untraced reference round, then traced rounds on a fresh server whose
  // accept→answer histogram covers the traced plant requests only.
  const PlantRound plain = s.plant(*s.start_server(), false);
  const auto srv = s.start_server();
  std::vector<PlantRound> traced;
  run_rounds(1, seconds / 3, [&] { traced.push_back(s.plant(*srv, true)); });
  double server_p50 = 0.0;
  for (const auto& h : srv->metrics().snapshot().histograms)
    if (h.name == std::string("serve.") + kName + ".latency_us")
      server_p50 = h.q.p50_us;
  const PlantRound& t = traced.back();
  record.check(t.fallback == plain.fallback && t.requests == plain.requests &&
                   t.mismatches == 0,
               "serve: traced plant round reproduces routing and actions");

  double sink = 0.0;
  std::size_t certified = 0;
  std::vector<double> certify_ns, fallback_ns, primary_ns;
  for (int r = 0; r < 5; ++r) {
    auto start = Clock::now();
    for (const la::Vec& x : t.states) sink += s.kstar->act(x)[0];
    primary_ns.push_back(1e9 * seconds_between(start, Clock::now()) /
                         static_cast<double>(t.states.size()));
    start = Clock::now();
    for (const la::Vec& x : t.states) certified += s.monitor.certified(x);
    certify_ns.push_back(1e9 * seconds_between(start, Clock::now()) /
                         static_cast<double>(t.states.size()));
    start = Clock::now();
    for (const la::Vec& x : t.states) sink += s.fallback->act(x)[0];
    fallback_ns.push_back(1e9 * seconds_between(start, Clock::now()) /
                          static_cast<double>(t.states.size()));
  }
  record.check(std::isfinite(sink) && certified > 0,
               "serve: replays produce finite output");

  const StreamRound stream = s.stream(*srv);
  record.check(stream.exact(), "serve: traced stream admission tally is exact");
  record.count_attempted(plain.requests + t.requests + stream.submitted);
  record.count_failed(stream.shed + stream.rejected);

  const double plant_p50 = quantile(t.latency_us, 0.5);
  record.metric("serve.submit_us", quantile(t.submit_us, 0.5), "us",
                t.submit_us.size());
  record.metric("serve.wait_us", quantile(t.wait_us, 0.5), "us",
                t.wait_us.size());
  record.metric("serve.server_p50_us", server_p50, "us", t.requests);
  record.metric("serve.certify_ns", median(certify_ns), "ns", 5);
  record.metric("control.fallback_act_ns", median(fallback_ns), "ns", 5);
  record.metric("serve.batches", static_cast<double>(stream.batches), "count",
                1);
  record.metric("serve.rows_per_batch",
                static_cast<double>(stream.primary) /
                    static_cast<double>(stream.batches),
                "rows", 1);
  record.metric("serve.accepted", static_cast<double>(stream.accepted),
                "count", 1);
  record.metric("gen.late_p99_us", quantile(stream.late_us, 0.99), "us",
                stream.late_us.size());
  // Share of the closed-loop round trip spent in named work — admission
  // (submit), the certificate check and the primary's forward pass; the
  // rest is queueing, linger and the thread hand-off.
  record.metric("share.plant_p50_us",
                (quantile(t.submit_us, 0.5) +
                 1e-3 * (median(certify_ns) + median(primary_ns))) /
                    plant_p50,
                "share", 1);
  record.info("serve.primary_act_ns", median(primary_ns));
  record.info("serve.shed", static_cast<double>(stream.shed));
  record.info("overhead.plant_p50_us",
              plant_p50 - quantile(plain.latency_us, 0.5));
}

}  // namespace e2e
