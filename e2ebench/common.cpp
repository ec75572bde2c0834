#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace e2e {
namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string first_line_with(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return "";
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
      have[3] = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    throw std::invalid_argument(
        "usage: e2e_bench --workload W --seed N --seconds S --trace 0|1");
  if (!(args.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return args;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double probe_cpu_seconds() {
  constexpr std::size_t kWidth = 16;
  constexpr int kCalls = 40000;
  static const auto weights = [] {
    std::vector<double> w(2 * kWidth + kWidth * kWidth + kWidth);
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = 0.3 * std::sin(static_cast<double>(i) + 1.0);
    return w;
  }();
  const double* w1 = weights.data();
  const double* w2 = w1 + 2 * kWidth;
  const double* w3 = w2 + kWidth * kWidth;
  timespec start{}, end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  double sum = 0.0;
  for (int call = 0; call < kCalls; ++call) {
    const std::vector<double> x{1e-5 * call, 0.3};
    std::vector<double> h1(kWidth), h2(kWidth);
    for (std::size_t i = 0; i < kWidth; ++i)
      h1[i] = std::tanh(w1[2 * i] * x[0] + w1[2 * i + 1] * x[1]);
    for (std::size_t i = 0; i < kWidth; ++i) {
      double a = 0.0;
      for (std::size_t j = 0; j < kWidth; ++j) a += w2[i * kWidth + j] * h1[j];
      h2[i] = std::tanh(a);
    }
    for (std::size_t j = 0; j < kWidth; ++j) sum += w3[j] * h2[j];
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  if (!std::isfinite(sum)) throw std::runtime_error("probe: non-finite sum");
  return static_cast<double>(end.tv_sec - start.tv_sec) +
         1e-9 * static_cast<double>(end.tv_nsec - start.tv_nsec);
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

int live_threads() {
  const std::string line = first_line_with("/proc/self/status", "Threads:");
  return line.empty() ? 0 : std::atoi(line.c_str() + std::strlen("Threads:"));
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void run_rounds(int min_rounds, double budget_s,
                const std::function<void()>& round) {
  const auto begin = Clock::now();
  for (int done = 0;
       done < min_rounds || seconds_between(begin, Clock::now()) < budget_s;
       ++done)
    round();
}

// ---- Record ----------------------------------------------------------------

void Record::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = {value, unit, samples};
}

void Record::info(const std::string& name, double value) { info_[name] = value; }

void Record::info_text(const std::string& name, const std::string& text) {
  text_[name] = text;
}

void Record::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failed_checks_.push_back(what);
    std::fprintf(stderr, "e2e_bench: CHECK FAILED: %s\n", what.c_str());
  }
}

std::vector<std::uint64_t> Record::cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream in(first_line_with("/proc/stat", "cpu "));
  std::string label;
  in >> label;
  std::vector<std::uint64_t> ticks;
  std::uint64_t value = 0;
  while (ticks.size() < 8 && in >> value) ticks.push_back(value);
  return ticks;
}

void Record::add_host(const std::vector<std::uint64_t>& ticks_at_start) {
  info("host.nproc", nproc());
  std::string model = first_line_with("/proc/cpuinfo", "model name");
  if (const auto colon = model.find(':'); colon != std::string::npos)
    model = model.substr(colon + 2);
  info_text("host.cpu_model", model);
  info_text("build.compiler", E2E_COMPILER);
  info_text("build.type", E2E_BUILD_TYPE);
  info_text("build.cxx_flags", E2E_CXX_FLAGS);
  info_text("build.cocktail_simd", E2E_SIMD);
  info_text("build.cocktail_blas", E2E_BLAS);
  std::ifstream loadavg("/proc/loadavg");
  double l1 = 0, l5 = 0, l15 = 0;
  if (loadavg >> l1 >> l5 >> l15) {
    info("host.loadavg_1m", l1);
    info("host.loadavg_5m", l5);
    info("host.loadavg_15m", l15);
  }
  const std::vector<std::uint64_t> end = cpu_ticks();
  if (end.size() == 8 && ticks_at_start.size() == 8) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 8; ++i) total += end[i] - ticks_at_start[i];
    info("host.steal_share",
         total > 0 ? static_cast<double>(end[7] - ticks_at_start[7]) /
                         static_cast<double>(total)
                   : 0.0);
  }
}

std::string Record::record_json(const std::string& workload,
                                std::uint64_t seed, bool trace) const {
  std::string out = "{\"record\": \"e2ebench\", \"workload\": " +
                    json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + (trace ? "1" : "0") +
                    ", \"checks\": " + std::to_string(checks_) +
                    ", \"failed_checks\": [";
  for (std::size_t i = 0; i < failed_checks_.size(); ++i)
    out += (i ? ", " : "") + json_string(failed_checks_[i]);
  out += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) + ": " +
           std::to_string(m.samples);
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [name, value] : info_) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  for (const auto& [name, text] : text_) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_string(text);
    first = false;
  }
  return out + "}}";
}

std::string Record::result_json() const {
  std::string out = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  return out + "}}";
}

// ---- traced wrappers --------------------------------------------------------

cocktail::la::Vec TracedSystem::step(const cocktail::la::Vec& s,
                                     const cocktail::la::Vec& u,
                                     const cocktail::la::Vec& omega) const {
  const auto start = Clock::now();
  cocktail::la::Vec next = inner_->step(s, u, omega);
  steps_.add(start);
  // Sample the thread count now and then: the plant is stepped from every
  // worker pool the library spins up, so this sees them all.
  if ((steps_.calls.load(std::memory_order_relaxed) & 8191) == 0) {
    const int threads = live_threads();
    int seen = max_threads_.load(std::memory_order_relaxed);
    while (threads > seen &&
           !max_threads_.compare_exchange_weak(seen, threads,
                                               std::memory_order_relaxed)) {
    }
  }
  return next;
}

}  // namespace e2e
