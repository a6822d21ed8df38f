// The benchmark's workloads, each expressed as a sweep grid over one base
// ScenarioSpec.  A grid cell is one operation (one scenario run); one round
// is every cell of the grid, and a run repeats whole rounds.  The scenario
// seeds of a round are a pure function of the benchmark's --seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "sweep/sweep.h"
#include "util/result.h"
#include "util/time.h"

namespace pipebench {

/// Worker threads of every timed sweep: fixed, below the 4 cores the
/// reference figures were taken on, never "all cores".
inline constexpr std::size_t kSweepWorkers = 2;

struct Workload {
  std::string name;
  rtcm::sweep::Grid grid;
  rtcm::sweep::SweepParams params;
  /// Timed through sweep::run_sweep with kSweepWorkers; otherwise the cells
  /// run one after another through scenario::run_scenario on one thread.
  bool through_sweep = false;
};

/// The named workload with its scenario seeds derived from `seed`.
[[nodiscard]] rtcm::Result<Workload> make_workload(const std::string& name,
                                                   std::uint64_t seed);

/// One fully specialized spec per grid cell, in canonical cell order.
[[nodiscard]] std::vector<rtcm::scenario::ScenarioSpec> round_specs(
    const Workload& workload);

/// Virtual instants around which the traced run pauses and times a window:
/// the mode-change instants when the spec has a script, otherwise the same
/// fractions of the horizon the wide-overload script uses.
[[nodiscard]] std::vector<rtcm::Time> probe_instants(
    const rtcm::scenario::ScenarioSpec& spec);

}  // namespace pipebench
