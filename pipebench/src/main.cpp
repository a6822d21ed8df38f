// Whole-pipeline middleware benchmark.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   pipebench --self-test
//
// Prints the result as one JSON object on the last line of standard output;
// check violations go to standard error.  See README.md.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "checks.h"
#include "runner.h"
#include "workloads.h"

namespace {

/// Taken during static initialization, before main: setup_s counts from
/// here.
const pipebench::Clock::time_point kProcessStart = pipebench::Clock::now();

struct Unit {
  const char* suffix;
  const char* unit;
};

/// Units by metric-name suffix, first match wins.
constexpr Unit kUnits[] = {
    {"arrivals_per_s", "arrivals/s"},
    {"cells_per_s", "runs/s"},
    {"peak_rss_mb", "MB"},
    {"events_per_arrival", "events/arrival"},
    {"_bytes", "bytes"},
    {"_ns", "ns"},
    {"_ms", "ms"},
    {"_ms_p50", "ms"},
    {"_ms_p99", "ms"},
    {"_s", "s"},
    {"_yield", "ratio"},
    {"_efficiency", "ratio"},
    {"_share", "ratio"},
};

const char* unit_of(const std::string& name) {
  for (const Unit& u : kUnits) {
    const std::string suffix = u.suffix;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return u.unit;
    }
  }
  return "count";
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] | --self-test\n",
               why.c_str());
  return 2;
}

bool parse_uint(const std::string& text, std::uint64_t& out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return pipebench::run_self_test();
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, seed)) return usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, seconds) || seconds == 0 || seconds > 600) {
        return usage("--seconds must be 1..600");
      }
    } else if (flag == "--trace") {
      if (!parse_uint(value, trace) || trace > 1) {
        return usage("--trace must be 0 or 1");
      }
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || !have_seed || seconds == 0 || trace > 1) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  auto w = pipebench::make_workload(workload, seed);
  if (!w.is_ok()) return usage(w.message());

  const auto run_seconds = static_cast<double>(seconds);
  const pipebench::Measurement m =
      trace == 1
          ? pipebench::run_traced(w.value(), run_seconds, spans)
          : pipebench::run_untraced(w.value(), run_seconds, kProcessStart);
  bool correct = m.problems.empty();
  std::string metrics;
  for (const auto& [name, value] : m.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "pipebench: metric %s is not finite\n",
                   name.c_str());
      correct = false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " +
               number(std::isfinite(value) ? value : 0.0) + ", \"unit\": \"" +
               unit_of(name) + "\"}";
  }
  for (const std::string& p : m.problems) {
    std::fprintf(stderr, "pipebench: incorrect output: %s\n", p.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(m.attempted),
      static_cast<unsigned long long>(m.failed), metrics.c_str());
  return 0;
}
