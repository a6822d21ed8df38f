// Output checks of the pipeline benchmark.
//
// Every check is a property that must hold for any seed, compared with a
// stated tolerance, never an expected value recorded from one run.  The
// checks work on plain data (RunOutcome, BookSnapshot) extracted from the
// runtime, so the self-test can feed them doctored copies of real results
// and prove that each one reports what it is meant to catch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "reconfig/manager.h"
#include "scenario/scenario.h"

namespace pipebench {

/// Tolerance on the recomputed accepted-utilization ratio.
inline constexpr double kRatioTolerance = 1e-9;
/// Tolerance on the recomputed Equation 1 left-hand side.
inline constexpr double kBoundTolerance = 1e-6;

struct TaskOutcome {
  std::int32_t task = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejections = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  double max_response_ms = 0.0;
  double deadline_ms = 0.0;
  /// TaskSpec::total_utilization of the task.
  double utilization = 0.0;

  bool operator==(const TaskOutcome&) const = default;
};

/// Everything the checks and the traced/untraced comparison look at, read
/// from one run after its drain.
struct RunOutcome {
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t rejections = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  double accept_ratio = 0.0;
  double aperiodic_response_ms = 0.0;
  std::vector<TaskOutcome> tasks;
  /// Per-job admissions still in the AC's book.
  std::size_t jobs_in_book = 0;
  std::size_t scripted_changes = 0;
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  /// Entries in the reconfiguration manager's history.
  std::size_t reconfig_outcomes = 0;

  bool operator==(const RunOutcome&) const = default;
};

/// Read a drained run.  `manager` is null when the spec has no script.
[[nodiscard]] RunOutcome summarize(
    const rtcm::scenario::ScenarioSpec& spec,
    rtcm::core::SystemRuntime& runtime,
    const rtcm::reconfig::ReconfigurationManager* manager);

/// The per-run properties; returns one line per violation (empty = pass).
[[nodiscard]] std::vector<std::string> check_outcome(const RunOutcome& run);

/// The AC's book at a pause: ledger totals by processor id and the
/// processor list of every admitted footprint.
struct BookSnapshot {
  std::vector<double> totals;  // indexed by ProcessorId value
  std::vector<std::vector<std::int32_t>> footprints;
};

[[nodiscard]] BookSnapshot snapshot_book(
    const rtcm::core::SchedulingState& state);

/// Every footprint must satisfy Equation 1 within kBoundTolerance.
[[nodiscard]] std::vector<std::string> check_book(const BookSnapshot& book);

/// The benchmark's own admission decision for a candidate placed on
/// (processor, utilization) stages, and its distance from the bound: the
/// smallest |LHS - 1| over the candidate and every footprint.
struct OwnDecision {
  bool admitted = false;
  double margin = 0.0;
};

/// Precomputed per-footprint state so a pause can judge many candidates
/// without rescanning every footprint for each.
class BookJudge {
 public:
  explicit BookJudge(const BookSnapshot& book);
  [[nodiscard]] OwnDecision decide(
      const std::vector<std::pair<std::int32_t, double>>& stages) const;

 private:
  const BookSnapshot& book_;
  std::vector<std::vector<std::uint32_t>> by_proc_;
  double min_base_margin_ = 0.0;
  bool all_base_ok_ = true;
};

/// Empty when the program's decision agrees with `own`, or when `own` lies
/// within kBoundTolerance of the bound (where rounding may decide).
[[nodiscard]] std::string check_agreement(const OwnDecision& own,
                                          bool program_admitted);

/// Feed every check a doctored copy of a real result and require that it
/// reports incorrect outputs.  Returns the process exit code.
[[nodiscard]] int run_self_test();

}  // namespace pipebench
