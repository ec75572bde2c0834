// e2e_bench — the end-to-end benchmark program.  Usage:
//
//   e2e_bench --workload design|certify|serve --seed N --seconds S --trace 0|1
//
// Prints one full record line (metrics with sample counts, output checks,
// host and build metadata) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits non-zero when an output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "stages.h"
#include "util/logging.h"

namespace {

using namespace e2e;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;

/// The workloads, each named after the stage it gives --seconds to, in the
/// order Stages::all() lists the stages.
constexpr std::array<std::string_view, 3> kWorkloads = {"design", "certify",
                                                         "serve"};

/// Progress to stderr, so a slow run shows where its time went.
void progress(const std::string& what, Clock::time_point since) {
  std::fprintf(stderr, "e2e_bench: %-18s %8.2f s\n", what.c_str(),
               seconds_between(since, Clock::now()));
}

struct Stages {
  DesignStage design;
  CertifyStage certify;
  ServeStage serve;
  explicit Stages(std::uint64_t seed)
      : design(seed), certify(seed), serve(seed) {}
  /// In round order, the order of kWorkloads.
  [[nodiscard]] std::array<Stage*, 3> all() {
    return {&design, &certify, &serve};
  }
};

/// Times one complete set-up: process CPU seconds scaled to the reference
/// speed by the probes on either side (kept in `probes`), and wall seconds.
std::unique_ptr<Stages> set_up(std::uint64_t seed, std::vector<double>& cpu_s,
                               std::vector<double>& wall_s,
                               std::vector<double>& probes) {
  const double before = probe_cpu_seconds();
  const auto start = Clock::now();
  const double cpu0 = process_cpu_seconds();
  auto stages = std::make_unique<Stages>(seed);
  const double cpu = process_cpu_seconds() - cpu0;
  wall_s.push_back(seconds_between(start, Clock::now()));
  const double after = probe_cpu_seconds();
  cpu_s.push_back(cpu * speed_scale(before, after));
  probes.insert(probes.end(), {before, after});
  progress("setup", start);
  return stages;
}

int run(const Args& args) {
  const std::vector<std::uint64_t> ticks = Record::cpu_ticks();
  Record record;

  // Set-up is serial, so its CPU time is its wall time less the host's
  // steal; the scaled CPU time is the result and the wall time stays in
  // the record.
  const auto own = static_cast<std::size_t>(
      std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) -
      kWorkloads.begin());
  if (own == kWorkloads.size())
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (design, certify, serve)");
  std::vector<double> setup_s, setup_wall_s, probes;
  const std::unique_ptr<Stages> stages =
      set_up(args.seed, setup_s, setup_wall_s, probes);
  const auto all = stages->all();

  if (args.trace) {
    // The workload's own stage traces for --seconds, the others briefly.
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto start = Clock::now();
      all[i]->trace(record, i == own ? args.seconds : 0.0);
      progress(std::string(kWorkloads[i]) + " (traced)", start);
    }
  } else {
    // Every workload reports every end-to-end metric, so every workload runs
    // all three stages.  They take turns, one round each per pass, with a
    // fresh set-up timed between passes: this host's speed wanders over
    // seconds, and taking turns spreads each metric's samples over the
    // whole run instead of one stretch of it.  Every stage runs a warm-up
    // round and at least its min_rounds() timed rounds; the workload's own
    // stage goes on until its timed rounds add up to --seconds of wall time.
    std::array<double, 3> timed_s{};
    std::array<int, 3> rounds{};
    for (bool more = true; more || setup_s.size() < kSetups;) {
      more = false;
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (rounds[i] > all[i]->min_rounds() &&
            !(i == own && timed_s[i] < args.seconds))
          continue;
        const auto start = Clock::now();
        all[i]->round();
        if (rounds[i]++ > 0) timed_s[i] += seconds_between(start, Clock::now());
        more = true;
      }
      if (setup_s.size() < kSetups)
        set_up(args.seed, setup_s, setup_wall_s, probes);
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i]->report(record);
      std::fprintf(stderr, "e2e_bench: %-18s %8.2f s in %d timed rounds\n",
                   std::string(kWorkloads[i]).c_str(), timed_s[i],
                   rounds[i] - 1);
    }
    record.metric("setup_s", median(setup_s), "s", setup_s.size());
    record.info("setup.wall_s", median(setup_wall_s));
    record.info("host.probe_s", median(probes));
  }

  record.add_host(ticks);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  if (!args.trace)
    record.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB", 1);
  std::printf("%s\n%s\n",
              record.record_json(args.workload, args.seed, args.trace).c_str(),
              record.result_json().c_str());
  return record.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cocktail::util::set_log_level(cocktail::util::LogLevel::kWarn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
