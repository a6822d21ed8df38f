#include "workloads.h"

#include <algorithm>
#include <utility>

#include "core/strategies.h"
#include "scenario/library.h"
#include "workload/generator.h"

namespace pipebench {

using rtcm::Duration;
using rtcm::ProcessorId;
using rtcm::Result;
using rtcm::Time;

namespace {

// Seeds per round.  paper-grid cells take about a millisecond and the work
// in a generated §7.1/§7.2 task set varies several-fold with its deadlines,
// so a round needs hundreds of task sets before the seed-to-seed spread
// averages out; huge-topology and wide-overload cells take seconds each.
constexpr int kPaperGridSeeds = 32;
constexpr int kHugeTopologySeeds = 12;
constexpr int kWideOverloadSeeds = 2;

/// Fractions (in tenths) of the horizon at which wide-overload changes mode.
constexpr int kProbeTenths[] = {1, 2, 3, 4, 5, 6, 7, 8};

/// Scenario seeds start at `seed * kSeedStride + 1`, so two benchmark seeds
/// never share a scenario.
constexpr std::uint64_t kSeedStride = 1000;
constexpr std::uint64_t kMaxSeed = 1ull << 40;

rtcm::core::StrategyCombination combo(const char* label) {
  return rtcm::core::StrategyCombination::parse(label).value();
}

/// Every cell gets a scenario seed of its own, so no two cells of a round
/// share a task set: a round then averages over as many task sets as it
/// has cells, which is what keeps its work steady from seed to seed.
void seed_cells(Workload& w, std::uint64_t seed) {
  const std::uint64_t base = seed * kSeedStride;
  std::vector<std::string> combos;
  for (const auto& c : w.grid.combos) combos.push_back(c.label());
  w.params.specialize = [base, combos](const rtcm::sweep::Cell& cell,
                                       rtcm::scenario::ScenarioSpec& spec) {
    const auto combo = static_cast<std::uint64_t>(
        std::find(combos.begin(), combos.end(), cell.combo) - combos.begin());
    spec.seed = base + (cell.seed - 1) * combos.size() + combo + 1;
  };
}

Workload paper_grid() {
  Workload w;
  w.name = "paper-grid";
  w.through_sweep = true;
  // Every valid combination except the three with AC and IR both per Job:
  // on about one cell in 3200 of these shapes they admit a job that then
  // misses its deadline by under a millisecond (see CHANGES.md), so a run
  // of them fails its output check on some seeds and not others.
  for (const auto& c : rtcm::core::valid_combinations()) {
    if (c.ac == rtcm::core::AcStrategy::kPerJob &&
        c.ir == rtcm::core::IrStrategy::kPerJob) {
      continue;
    }
    w.grid.combos.push_back(c);
  }
  w.grid.shapes = {{"random", rtcm::workload::random_workload_shape()},
                   {"imbalanced", rtcm::workload::imbalanced_workload_shape()}};
  w.grid.seeds = kPaperGridSeeds;
  // The base spec's defaults are the paper's: 100 s horizon, 322 us one-way
  // delay, Poisson aperiodic arrivals.
  return w;
}

Result<Workload> huge_topology() {
  auto entry = rtcm::scenario::find_grid("huge-topology");
  if (!entry.is_ok()) return Result<Workload>::error(entry.message());
  Workload w;
  w.name = "huge-topology";
  w.grid.combos = {combo("J_J_J")};
  w.grid.shapes = entry.value().grid.shapes;
  w.grid.seeds = kHugeTopologySeeds;
  w.params.base.horizon = Duration::seconds(300);
  return w;
}

Workload wide_overload() {
  Workload w;
  w.name = "wide-overload";
  rtcm::workload::WorkloadShape shape;
  for (std::int32_t p = 0; p < 256; ++p) {
    shape.primary_processors.push_back(ProcessorId(p));
  }
  for (std::int32_t p = 256; p < 320; ++p) {
    shape.replica_processors.push_back(ProcessorId(p));
  }
  shape.periodic_tasks = 480;
  shape.aperiodic_tasks = 480;
  shape.min_subtasks = 1;
  shape.max_subtasks = 3;
  w.grid.combos = {combo("T_N_N")};
  w.grid.shapes = {{"wide-256p", shape}};
  w.grid.seeds = kWideOverloadSeeds;

  rtcm::scenario::ScenarioSpec& base = w.params.base;
  base.horizon = Duration::seconds(100);
  rtcm::workload::BurstShape burst;
  burst.jobs_per_burst = 8;
  burst.intra_gap = Duration::milliseconds(5);
  burst.inter_gap = Duration::seconds(2);
  burst.bursts = static_cast<std::size_t>(
      base.horizon.usec() /
      (burst.inter_gap + burst.intra_gap * burst.jobs_per_burst).usec() + 1);
  base.arrivals = rtcm::scenario::ArrivalModel::bursty(burst);

  // Drain and undrain primaries P0..P3 in turn; each drain migrates the
  // standing reservations placed there.
  for (std::size_t k = 0; k < std::size(kProbeTenths); ++k) {
    rtcm::config::ModeChange change;
    change.at = Time::epoch() +
                Duration(base.horizon.usec() * kProbeTenths[k] / 10);
    const ProcessorId node(static_cast<std::int32_t>(k / 2));
    if (k % 2 == 0) {
      change.label = "drain-" + node.to_string();
      change.drain = {node};
    } else {
      change.label = "undrain-" + node.to_string();
      change.undrain = {node};
    }
    base.reconfig.push_back(std::move(change));
  }
  return w;
}

}  // namespace

Result<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (seed >= kMaxSeed) {
    return Result<Workload>::error("--seed must be below 2^40");
  }
  Workload w;
  if (name == "paper-grid") {
    w = paper_grid();
  } else if (name == "huge-topology") {
    auto huge = huge_topology();
    if (!huge.is_ok()) return huge;
    w = std::move(huge).value();
  } else if (name == "wide-overload") {
    w = wide_overload();
  } else {
    return Result<Workload>::error("unknown workload '" + name + "'");
  }
  seed_cells(w, seed);
  return w;
}

std::vector<rtcm::scenario::ScenarioSpec> round_specs(const Workload& w) {
  std::vector<rtcm::scenario::ScenarioSpec> specs;
  for (const rtcm::sweep::Cell& cell : w.grid.cells()) {
    for (const rtcm::sweep::ShapeSpec& shape : w.grid.shapes) {
      if (shape.name != cell.shape) continue;
      specs.push_back(
          rtcm::sweep::cell_spec(cell, shape.shape, w.params).value());
    }
  }
  return specs;
}

std::vector<Time> probe_instants(const rtcm::scenario::ScenarioSpec& spec) {
  std::vector<Time> out;
  if (!spec.reconfig.empty()) {
    for (const rtcm::config::ModeChange& change : spec.reconfig) {
      out.push_back(change.at);
    }
    return out;
  }
  for (const int tenths : kProbeTenths) {
    out.push_back(Time::epoch() +
                  Duration(spec.horizon.usec() * tenths / 10));
  }
  return out;
}

}  // namespace pipebench
