// Runs a workload untraced (the end-to-end metrics) or traced (the
// per-layer metrics), driving the middleware only through its public API.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "reconfig/manager.h"
#include "scenario/scenario.h"
#include "util/result.h"
#include "workloads.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

/// One recorded interval.  Spans of one operation share `op`; `parent` is
/// the index of the enclosing span, or -1.
struct Span {
  const char* name = "";
  std::size_t op = 0;
  std::int64_t parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// Keeps spans in memory; written out once, when the run ends.
class Tracer {
 public:
  std::size_t begin(const char* name, std::size_t op, std::int64_t parent);
  void end(std::size_t span) { spans_[span].end = Clock::now(); }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] double duration(std::size_t span) const;
  /// Total duration of the spans called `name`, from index `from` on.
  [[nodiscard]] double seconds(const char* name, std::size_t from) const;
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// A runtime set up exactly as scenario::run_scenario sets it up — task
/// set and arrival trace generated, runtime assembled, mode-change script
/// scheduled, arrivals injected — but not yet run.
struct Prepared {
  std::unique_ptr<rtcm::core::SystemRuntime> runtime;
  /// Declared after `runtime` so it is destroyed first.
  std::unique_ptr<rtcm::reconfig::ReconfigurationManager> manager;
  /// horizon + drain: where run_scenario stops.
  rtcm::Time end;
};

/// With a tracer, records workload.generate / core.assemble / core.inject
/// spans under `parent`.
[[nodiscard]] rtcm::Result<Prepared> prepare(
    const rtcm::scenario::ScenarioSpec& spec, Tracer* tracer = nullptr,
    std::size_t op = 0, std::int64_t parent = -1);

struct Measurement {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Violated output checks; the run is correct when this stays empty.
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, double>> metrics;
};

/// End-to-end metrics: arrivals_per_s, cells_per_s, setup_s, peak_rss_mb.
[[nodiscard]] Measurement run_untraced(const Workload& workload,
                                       double seconds,
                                       Clock::time_point process_start);

/// Per-layer metrics from the traced run; spans go to `spans_path` when it
/// is not empty.
[[nodiscard]] Measurement run_traced(const Workload& workload, double seconds,
                                     const std::string& spans_path);

}  // namespace pipebench
