#include "runner.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <tuple>
#include <variant>

#include "checks.h"
#include "events/event.h"
#include "sched/load_balancer.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "util/stats.h"
#include "workload/arrival.h"
#include "workload/burst.h"
#include "workload/generator.h"

namespace pipebench {

using rtcm::Duration;
using rtcm::Result;
using rtcm::Status;
using rtcm::Time;
using rtcm::scenario::ScenarioSpec;

namespace {

/// Each traced window spans one virtual second around its probe instant.
constexpr Duration kHalfWindow = Duration::milliseconds(500);
/// Admission tests and placements timed per pause, and pushes timed per
/// event type and operation: enough calls that clock overhead is noise.
constexpr std::size_t kCallsPerPause = 512;
constexpr std::size_t kPushesPerType = 512;
/// Check violations kept verbatim; any further ones collapse into "...".
constexpr std::size_t kMaxProblems = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps timed results observable so the calls are not optimized away.
volatile std::size_t g_sink = 0;

void note(Measurement& m, const std::string& what,
          const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    if (m.problems.size() < kMaxProblems) m.problems.push_back(what + ": " + p);
    else if (m.problems.size() == kMaxProblems) m.problems.push_back("...");
  }
}

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::size_t op,
             std::int64_t parent)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, op, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

std::vector<rtcm::core::Arrival> make_arrivals(
    const ScenarioSpec& spec, const rtcm::sched::TaskSet& tasks,
    rtcm::Rng& rng) {
  const Time horizon = Time::epoch() + spec.horizon;
  switch (spec.arrivals.kind) {
    case rtcm::scenario::ArrivalModel::Kind::kPoisson:
      return rtcm::workload::generate_arrivals(tasks, horizon, rng);
    case rtcm::scenario::ArrivalModel::Kind::kBursty:
      return rtcm::workload::generate_bursty_arrivals(
          tasks, horizon, spec.arrivals.burst, rng);
    case rtcm::scenario::ArrivalModel::Kind::kTrace:
      return spec.arrivals.trace;
    case rtcm::scenario::ArrivalModel::Kind::kNone:
      break;
  }
  return {};
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The deterministic fields a sweep cell shares with a direct run.
bool same_cell(const rtcm::sweep::CellResult& cell, const RunOutcome& run) {
  return cell.error.empty() && cell.accept_ratio == run.accept_ratio &&
         cell.deadline_misses == run.deadline_misses &&
         cell.aperiodic_response_ms == run.aperiodic_response_ms &&
         cell.reconfig_applied == run.reconfig_applied &&
         cell.reconfig_rejected == run.reconfig_rejected;
}

/// Count a sweep's cells and check each against the direct run of its spec.
void check_sweep(const std::vector<rtcm::sweep::CellResult>& cells,
                 const std::vector<ScenarioSpec>& specs,
                 const std::vector<std::optional<RunOutcome>>& direct,
                 Measurement& m) {
  m.attempted += cells.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!cells[i].error.empty()) ++m.failed;
    else if (!direct[i] || !same_cell(cells[i], *direct[i])) {
      note(m, specs[i].name, {"sweep cell differs from the direct run"});
    }
  }
}

/// Set up every operation of a round on this thread, all before the first
/// event of any runs, and return the host time from process start until
/// the last is ready.  The prepared runtimes are then dropped unrun.
double cold_setup(const std::vector<ScenarioSpec>& specs,
                  Clock::time_point process_start) {
  std::vector<Prepared> ready;
  for (const ScenarioSpec& spec : specs) {
    auto prepared = prepare(spec);
    if (prepared.is_ok()) ready.push_back(std::move(prepared).value());
  }
  return seconds_since(process_start);
}

/// Runs one spec through run_scenario, checks it, and returns its outcome
/// (nullopt when the run failed).  `seconds` gets the host time of the run
/// and of its teardown, not of the checks.
std::optional<RunOutcome> run_checked(const ScenarioSpec& spec,
                                      Measurement& m, double& seconds) {
  ++m.attempted;
  Clock::time_point t0 = Clock::now();
  auto run = rtcm::scenario::run_scenario(spec);
  seconds = seconds_since(t0);
  if (!run.is_ok()) {
    ++m.failed;
    return std::nullopt;
  }
  std::optional<rtcm::scenario::ScenarioResult> result(std::move(run).value());
  RunOutcome outcome =
      summarize(spec, *result->runtime, result->reconfig_manager.get());
  note(m, spec.name, check_outcome(outcome));
  t0 = Clock::now();
  result.reset();
  seconds += seconds_since(t0);
  return outcome;
}

// --- Traced run ---------------------------------------------------------

/// Per-round accumulators of the traced run.
struct LayerTotals {
  std::uint64_t arrivals = 0;
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::uint64_t pushed = 0;
  std::uint64_t deliveries = 0;
  double subscriptions = 0.0;  // summed over operations
  double yield_base = 0.0;     // sum of pushes x subscriptions
  std::size_t ops = 0;
  rtcm::core::AdmissionControl::Counters ac;
  std::uint64_t placements = 0;
  std::size_t footprints = 0;
  std::size_t book_bytes = 0;
  double test_s = 0.0;
  std::uint64_t tests_timed = 0;
  double place_s = 0.0;
  std::uint64_t places_timed = 0;
  /// Sum over event types of pushes in the run x standalone push cost.
  double push_cost_s = 0.0;
  std::uint64_t typed_pushes = 0;
  double window_s = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  std::uint64_t migrated = 0;
};

/// Every task as an admission candidate placed on its primaries.
struct Candidates {
  std::vector<const rtcm::sched::TaskSpec*> tasks;
  std::vector<std::vector<rtcm::sched::CandidateStage>> program;
  std::vector<std::vector<std::pair<std::int32_t, double>>> own;

  explicit Candidates(const rtcm::sched::TaskSet& set) {
    for (const rtcm::sched::TaskSpec& task : set.tasks()) {
      tasks.push_back(&task);
      program.emplace_back();
      own.emplace_back();
      for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
        const double u = task.subtask_utilization(j);
        program.back().push_back({task.subtasks[j].primary, u});
        own.back().emplace_back(task.subtasks[j].primary.value(), u);
      }
    }
  }
};

std::size_t subscription_total(rtcm::core::SystemRuntime& rt) {
  std::vector<rtcm::ProcessorId> procs = rt.app_processors();
  procs.push_back(rt.task_manager());
  std::size_t total = 0;
  for (const rtcm::ProcessorId p : procs) {
    total += rt.federation().channel(p).subscription_count();
  }
  return total;
}

/// At a pause: check the live book against Equation 1, time the program's
/// admission test and a standalone placement on it, and compare the test's
/// decisions with the benchmark's own.
void probe(rtcm::core::SystemRuntime& rt, const Candidates& cands,
           LayerTotals& acc, Measurement& m, const std::string& where) {
  const rtcm::core::SchedulingState& state = rt.admission_control()->state();
  const rtcm::sched::AdmissionIndex& index = state.admission_index();
  const rtcm::sched::UtilizationLedger& ledger = state.ledger();
  const BookSnapshot book = snapshot_book(state);
  note(m, where, check_book(book));

  const std::size_t n = cands.tasks.size();
  const std::size_t reps = std::max<std::size_t>(1, kCallsPerPause / n);
  std::vector<char> admitted(n);
  Clock::time_point t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      admitted[c] = index.admission_test(ledger, cands.tasks[c]->id,
                                         cands.program[c])
                        .admitted;
    }
  }
  acc.test_s += seconds_since(t0);
  acc.tests_timed += reps * n;

  const BookJudge judge(book);
  for (std::size_t c = 0; c < n; ++c) {
    const std::string disagreement =
        check_agreement(judge.decide(cands.own[c]), admitted[c] != 0);
    if (!disagreement.empty()) {
      note(m, where, {cands.tasks[c]->name + ": " + disagreement});
    }
  }

  const rtcm::sched::LoadBalancer balancer;
  std::size_t placed = 0;
  t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      placed += balancer.place(*cands.tasks[c], ledger).size();
    }
  }
  acc.place_s += seconds_since(t0);
  acc.places_timed += reps * n;
  g_sink = g_sink + placed;

  acc.footprints = std::max(acc.footprints, index.footprint_count());
  acc.book_bytes = std::max(
      acc.book_bytes, state.footprint_bytes() + state.arena().reserved_bytes());
}

/// Pushes per event type, indexed like events::EventPayload.
using TypedCounts =
    std::array<std::uint64_t,
               std::variant_size_v<rtcm::events::EventPayload>>;

/// Pushes of each event type in a drained run, derived from the counters of
/// the components that push them.
TypedCounts typed_pushes(rtcm::core::SystemRuntime& rt) {
  using rtcm::events::EventType;
  TypedCounts n{};
  const auto& ac = rt.admission_control()->counters();
  std::uint64_t immediate = 0;
  for (const rtcm::ProcessorId p : rt.app_processors()) {
    immediate += rt.task_effector(p)->immediate_releases();
    n[static_cast<std::size_t>(EventType::kIdleReset)] +=
        rt.idle_resetter(p)->reports_pushed();
  }
  n[static_cast<std::size_t>(EventType::kTaskArrive)] =
      rt.metrics().total().arrivals - immediate;
  n[static_cast<std::size_t>(EventType::kAccept)] = ac.admits;
  n[static_cast<std::size_t>(EventType::kReject)] = ac.rejects;
  // Every released job pushes one Trigger per stage (the TE the first,
  // each F/I subtask the next).
  for (const auto& [task, tm] : rt.metrics().per_task()) {
    n[static_cast<std::size_t>(EventType::kTrigger)] +=
        tm.releases * rt.tasks().find(task)->stage_count();
  }
  return n;
}

/// Drive one spec through Simulator::step with pauses around each probe
/// instant, then check its outputs against the untraced run's.  Returns the
/// run's pushes per event type.
TypedCounts drive(const ScenarioSpec& spec,
                  const std::optional<RunOutcome>& untraced, std::size_t op,
                  Tracer& tracer, LayerTotals& acc, Measurement& m) {
  ++m.attempted;
  const std::size_t op_span = tracer.begin("op", op, -1);
  const auto parent = static_cast<std::int64_t>(op_span);
  auto prepared = prepare(spec, &tracer, op, parent);
  if (!prepared.is_ok()) {
    ++m.failed;
    tracer.end(op_span);
    return {};
  }
  std::optional<Prepared> p(std::move(prepared).value());
  rtcm::core::SystemRuntime& rt = *p->runtime;
  rtcm::sim::Simulator& sim = rt.simulator();
  const Candidates cands(rt.tasks());

  // Stops: the start and end of each window, then the run's end.  The
  // sentinels are no-ops, so the run's own events keep their order.
  std::vector<Time> stops;
  for (const Time t : probe_instants(spec)) {
    stops.push_back(t - kHalfWindow);
    stops.push_back(t + kHalfWindow);
  }
  stops.push_back(p->end);
  bool fired = false;
  for (const Time t : stops) sim.schedule_at(t, [&fired] { fired = true; });
  const std::uint64_t executed_before = sim.executed();

  for (std::size_t k = 0; k < stops.size(); ++k) {
    const bool last = k + 1 == stops.size();
    const std::size_t sentinels_left = stops.size() - k;
    const std::size_t span = tracer.begin("sim.dispatch", op, parent);
    fired = false;
    while (!fired && sim.step()) {
      const std::size_t pending = sim.pending();
      if (pending > sentinels_left) {
        acc.peak_pending = std::max(acc.peak_pending, pending - sentinels_left);
      }
    }
    // run_scenario stops with run_until(end), which also runs the events
    // scheduled at exactly `end` after the sentinel was.
    if (last) sim.run_until(p->end);
    tracer.end(span);
    if (!last && k % 2 == 1) {
      acc.window_s += tracer.duration(span);
      ++acc.windows;
    }
    if (!last && k % 2 == 0) {
      ScopedSpan probe_span(&tracer, "probe", op, parent);
      probe(rt, cands, acc, m, spec.name + " @" + stops[k].to_string());
    }
  }
  acc.events += sim.executed() - executed_before - stops.size();

  const RunOutcome outcome = summarize(spec, rt, p->manager.get());
  note(m, spec.name + " (traced)", check_outcome(outcome));
  if (untraced && !(outcome == *untraced)) {
    note(m, spec.name, {"traced outputs differ from run_scenario's"});
  }
  acc.arrivals += outcome.arrivals;
  const rtcm::events::FederationStats& fed = rt.federation().stats();
  const std::size_t subs = subscription_total(rt);
  acc.pushed += fed.events_pushed;
  acc.deliveries += fed.local_deliveries + fed.remote_deliveries;
  acc.subscriptions += static_cast<double>(subs);
  acc.yield_base +=
      static_cast<double>(fed.events_pushed) * static_cast<double>(subs);
  ++acc.ops;
  const auto& ac = rt.admission_control()->counters();
  acc.ac.admission_tests += ac.admission_tests;
  acc.ac.admits += ac.admits;
  acc.ac.rejects += ac.rejects;
  acc.ac.auto_accepts += ac.auto_accepts;
  acc.ac.subjobs_reset += ac.subjobs_reset;
  acc.placements += rt.load_balancer()->location_calls();
  if (p->manager) {
    for (const rtcm::reconfig::ReconfigReport& r : p->manager->history()) {
      acc.reconfig_applied += r.applied ? 1 : 0;
      acc.reconfig_rejected += r.applied ? 0 : 1;
      acc.migrated += r.migrated_tasks;
    }
  }
  const TypedCounts typed = typed_pushes(rt);
  {
    ScopedSpan teardown(&tracer, "core.teardown", op, parent);
    p.reset();
  }
  tracer.end(op_span);
  return typed;
}

/// Time FederatedEventChannel::push, per event type, on a runtime
/// assembled for `spec` and never run.  Each type's batch holds the events
/// of that type one job of every task pushes, with every stage on its
/// primary; returns nanoseconds per push by type.
std::array<double, std::tuple_size_v<TypedCounts>> time_pushes(
    const ScenarioSpec& spec, Measurement& m) {
  std::array<double, std::tuple_size_v<TypedCounts>> ns{};
  rtcm::Rng rng(spec.seed);
  rtcm::core::SystemRuntime rt(
      spec.config, rtcm::workload::generate_workload(spec.workload.shape, rng));
  if (Status s = rt.assemble(); !s.is_ok()) {
    note(m, spec.name, {"push runtime: " + s.message()});
    return ns;
  }
  using rtcm::events::EventPayload;
  using Batch = std::vector<std::pair<rtcm::ProcessorId, EventPayload>>;
  std::array<Batch, std::tuple_size_v<TypedCounts>> batches;
  const auto add = [&batches](rtcm::ProcessorId source, EventPayload payload) {
    batches[payload.index()].emplace_back(source, std::move(payload));
  };
  const rtcm::ProcessorId manager = rt.task_manager();
  std::int32_t job = 0;
  for (const rtcm::sched::TaskSpec& task : rt.tasks().tasks()) {
    std::vector<rtcm::ProcessorId> placement;
    for (const auto& st : task.subtasks) placement.push_back(st.primary);
    const rtcm::ProcessorId first = placement.front();
    const rtcm::JobId id(job++);
    const Time deadline = Time::epoch() + task.deadline;
    add(first, rtcm::events::TaskArrivePayload{task.id, id, first,
                                               Time::epoch(), false});
    add(manager, rtcm::events::AcceptPayload{task.id, id, first, placement,
                                             deadline, false});
    add(manager, rtcm::events::RejectPayload{task.id, id, first});
    for (std::size_t s = 0; s < placement.size(); ++s) {
      add(placement[s == 0 ? 0 : s - 1],
          rtcm::events::TriggerPayload{task.id, id, s, placement, deadline,
                                       Time::epoch()});
    }
    add(first, rtcm::events::IdleResetPayload{
                   first, {rtcm::events::SubjobRef{task.id, id, 0}}});
  }
  for (std::size_t t = 0; t < batches.size(); ++t) {
    const std::size_t reps =
        std::max<std::size_t>(1, kPushesPerType / batches[t].size());
    double seconds = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      Batch copy = batches[t];
      const Clock::time_point t0 = Clock::now();
      for (auto& [source, payload] : copy) {
        rt.federation().push(source, std::move(payload));
      }
      seconds += seconds_since(t0);
    }
    ns[t] = seconds * 1e9 / static_cast<double>(reps * batches[t].size());
  }
  return ns;
}

using RoundValues = std::map<std::string, double>;

/// Per-layer counts that must repeat exactly from round to round.
const char* const kCountKeys[] = {
    "sim.events",         "sim.peak_pending",       "events.pushed",
    "events.deliveries",  "events.subscriptions",   "admission.tests",
    "admission.admits",   "admission.rejects",      "admission.auto_accepts",
    "admission.footprints", "admission.book_bytes", "lb.placements",
    "ir.subjobs_reset",   "reconfig.applied",       "reconfig.rejected",
    "reconfig.migrated"};

RoundValues traced_round(const Workload& w,
                         const std::vector<ScenarioSpec>& specs,
                         Tracer& tracer, std::size_t& next_op,
                         Measurement& m) {
  const std::size_t first_span = tracer.size();
  RoundValues v;

  // Single-thread run_scenario pass: the reference outputs and cell times.
  std::vector<std::optional<RunOutcome>> untraced(specs.size());
  rtcm::Samples cell_ms;
  double cell_s = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double s = 0.0;
    untraced[i] = run_checked(specs[i], m, s);
    if (untraced[i]) {
      cell_ms.add(s * 1e3);
      cell_s += s;
    }
  }

  // The same cells through the sweep engine.
  Clock::time_point t0 = Clock::now();
  const std::vector<rtcm::sweep::CellResult> cells =
      rtcm::sweep::run_sweep(w.grid, w.params, {kSweepWorkers});
  const double sweep_s = seconds_since(t0);
  check_sweep(cells, specs, untraced, m);
  t0 = Clock::now();
  rtcm::sweep::Report report;
  report.name = w.name;
  report.cells = cells;
  g_sink = g_sink + report.to_json().dump().size();
  v["sweep.report_ms"] = seconds_since(t0) * 1e3;
  v["sweep.cell_ms_p50"] = cell_ms.empty() ? 0.0 : cell_ms.percentile(50);
  v["sweep.cell_ms_p99"] = cell_ms.empty() ? 0.0 : cell_ms.percentile(99);
  v["sweep.parallel_efficiency"] =
      cell_s / (static_cast<double>(kSweepWorkers) * sweep_s);

  LayerTotals acc;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TypedCounts typed =
        drive(specs[i], untraced[i], next_op++, tracer, acc, m);
    const auto ns = time_pushes(specs[i], m);
    for (std::size_t t = 0; t < typed.size(); ++t) {
      acc.push_cost_s += static_cast<double>(typed[t]) * ns[t] * 1e-9;
      acc.typed_pushes += typed[t];
    }
  }

  const double generate = tracer.seconds("workload.generate", first_span);
  const double assemble = tracer.seconds("core.assemble", first_span);
  const double inject = tracer.seconds("core.inject", first_span);
  const double dispatch = tracer.seconds("sim.dispatch", first_span);
  const double teardown = tracer.seconds("core.teardown", first_span);
  const auto arrivals = static_cast<double>(acc.arrivals);
  const auto per_call_ns = [](double s, std::uint64_t calls) {
    return calls == 0 ? 0.0 : s * 1e9 / static_cast<double>(calls);
  };
  v["workload.generate_s"] = generate;
  v["core.assemble_s"] = assemble;
  v["core.inject_s"] = inject;
  v["core.teardown_s"] = teardown;
  v["sim.dispatch_s"] = dispatch;
  v["sim.events"] = static_cast<double>(acc.events);
  v["sim.events_per_arrival"] = static_cast<double>(acc.events) / arrivals;
  v["sim.peak_pending"] = static_cast<double>(acc.peak_pending);
  v["trace.arrivals_per_s"] =
      arrivals / (generate + assemble + inject + dispatch + teardown);
  v["events.pushed"] = static_cast<double>(acc.pushed);
  v["events.deliveries"] = static_cast<double>(acc.deliveries);
  v["events.subscriptions"] = acc.subscriptions / static_cast<double>(acc.ops);
  v["events.delivery_yield"] =
      static_cast<double>(acc.deliveries) / acc.yield_base;
  // Mean standalone push cost, weighted by the run's mix of event types.
  v["events.push_ns"] = per_call_ns(acc.push_cost_s, acc.typed_pushes);
  v["admission.tests"] = static_cast<double>(acc.ac.admission_tests);
  v["admission.admits"] = static_cast<double>(acc.ac.admits);
  v["admission.rejects"] = static_cast<double>(acc.ac.rejects);
  v["admission.auto_accepts"] = static_cast<double>(acc.ac.auto_accepts);
  v["admission.footprints"] = static_cast<double>(acc.footprints);
  v["admission.book_bytes"] = static_cast<double>(acc.book_bytes);
  v["admission.test_ns"] = per_call_ns(acc.test_s, acc.tests_timed);
  v["lb.placements"] = static_cast<double>(acc.placements);
  v["lb.place_ns"] = per_call_ns(acc.place_s, acc.places_timed);
  v["ir.subjobs_reset"] = static_cast<double>(acc.ac.subjobs_reset);
  v["reconfig.applied"] = static_cast<double>(acc.reconfig_applied);
  v["reconfig.rejected"] = static_cast<double>(acc.reconfig_rejected);
  v["reconfig.migrated"] = static_cast<double>(acc.migrated);
  v["reconfig.window_ms"] =
      acc.window_s * 1e3 / static_cast<double>(acc.windows);
  // Estimated share of dispatch time: standalone cost per call x calls
  // made inside the run.
  v["events.push_share"] = acc.push_cost_s / dispatch;
  v["admission.test_share"] = v["admission.test_ns"] * 1e-9 *
                              static_cast<double>(acc.ac.admission_tests) /
                              dispatch;
  v["lb.place_share"] = v["lb.place_ns"] * 1e-9 *
                        static_cast<double>(acc.placements) / dispatch;
  return v;
}

}  // namespace

std::size_t Tracer::begin(const char* name, std::size_t op,
                          std::int64_t parent) {
  spans_.push_back(Span{name, op, parent, Clock::now(), {}});
  return spans_.size() - 1;
}

double Tracer::duration(std::size_t span) const {
  return std::chrono::duration<double>(spans_[span].end - spans_[span].start)
      .count();
}

double Tracer::seconds(const char* name, std::size_t from) const {
  double total = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) total += duration(i);
  }
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << ns(s.start)
        << ",\"end_ns\":" << ns(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

Result<Prepared> prepare(const ScenarioSpec& spec, Tracer* tracer,
                         std::size_t op, std::int64_t parent) {
  if (Status s = rtcm::scenario::validate(spec); !s.is_ok()) {
    return Result<Prepared>::error(s.message());
  }
  if (spec.workload.kind != rtcm::scenario::WorkloadSpec::Kind::kGenerated) {
    return Result<Prepared>::error("benchmark workloads are generated");
  }
  // The seed discipline of run_scenario: the task set consumes the root
  // stream, the arrival trace gets fork(1).
  rtcm::Rng rng(spec.seed);
  rtcm::sched::TaskSet tasks;
  std::vector<rtcm::core::Arrival> arrivals;
  {
    ScopedSpan span(tracer, "workload.generate", op, parent);
    tasks = rtcm::workload::generate_workload(spec.workload.shape, rng);
    rtcm::Rng arrival_rng = rng.fork(1);
    arrivals = make_arrivals(spec, tasks, arrival_rng);
  }
  Prepared p;
  {
    ScopedSpan span(tracer, "core.assemble", op, parent);
    p.runtime = std::make_unique<rtcm::core::SystemRuntime>(spec.config,
                                                            std::move(tasks));
    if (Status s = p.runtime->assemble(); !s.is_ok()) {
      return Result<Prepared>::error(s.message());
    }
    if (!spec.reconfig.empty()) {
      p.manager =
          std::make_unique<rtcm::reconfig::ReconfigurationManager>(*p.runtime);
      if (Status s = p.manager->schedule_script(spec.reconfig); !s.is_ok()) {
        return Result<Prepared>::error(s.message());
      }
    }
  }
  {
    ScopedSpan span(tracer, "core.inject", op, parent);
    if (Status s = p.runtime->inject_arrivals(arrivals); !s.is_ok()) {
      return Result<Prepared>::error(s.message());
    }
  }
  p.end = Time::epoch() + spec.horizon + spec.drain;
  return p;
}

Measurement run_untraced(const Workload& w, double seconds,
                         Clock::time_point process_start) {
  Measurement m;
  const std::vector<ScenarioSpec> specs = round_specs(w);
  const double setup_s = cold_setup(specs, process_start);

  // Rounds repeat the same inputs, so each timed unit (a sweep, or one
  // run) keeps its median time over the rounds: a transient stall on a
  // shared host then moves the result much less than it would a mean.
  std::vector<std::vector<double>> times;
  std::vector<std::optional<RunOutcome>> first(specs.size());
  double elapsed = 0.0;
  if (w.through_sweep) {
    // Sweep cells report no counts, so one untimed direct pass provides
    // them, runs the checks, and is what every sweep round must reproduce.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      double unused = 0.0;
      first[i] = run_checked(specs[i], m, unused);
    }
    times.resize(1);
    do {
      const Clock::time_point t0 = Clock::now();
      const std::vector<rtcm::sweep::CellResult> cells =
          rtcm::sweep::run_sweep(w.grid, w.params, {kSweepWorkers});
      times[0].push_back(seconds_since(t0));
      elapsed += times[0].back();
      check_sweep(cells, specs, first, m);
    } while (elapsed < seconds);
  } else {
    times.resize(specs.size());
    do {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        double s = 0.0;
        const std::optional<RunOutcome> outcome = run_checked(specs[i], m, s);
        times[i].push_back(s);
        elapsed += s;
        if (!outcome) continue;
        if (!first[i]) first[i] = outcome;
        else if (!(*first[i] == *outcome)) {
          note(m, specs[i].name, {"outputs differ between rounds"});
        }
      }
    } while (elapsed < seconds);
  }
  double round_s = 0.0;
  for (std::vector<double>& t : times) round_s += median(std::move(t));
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  for (const std::optional<RunOutcome>& outcome : first) {
    if (!outcome) continue;
    arrivals += outcome->arrivals;
    ++completed;
  }
  m.metrics = {
      {"arrivals_per_s", static_cast<double>(arrivals) / round_s},
      {"cells_per_s", static_cast<double>(completed) / round_s},
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb()},
  };
  return m;
}

Measurement run_traced(const Workload& w, double seconds,
                       const std::string& spans_path) {
  Measurement m;
  const std::vector<ScenarioSpec> specs = round_specs(w);
  Tracer tracer;
  std::vector<RoundValues> rounds;
  std::size_t next_op = 0;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(traced_round(w, specs, tracer, next_op, m));
  } while (seconds_since(start) < seconds);

  for (const char* key : kCountKeys) {
    for (const RoundValues& r : rounds) {
      if (r.at(key) != rounds.front().at(key)) {
        note(m, key, {"count differs between rounds of the same inputs"});
        break;
      }
    }
  }
  // Median over rounds (counts repeat, so theirs is the count itself).
  for (const auto& [key, unused] : rounds.front()) {
    std::vector<double> values;
    for (const RoundValues& r : rounds) values.push_back(r.at(key));
    m.metrics.emplace_back(key, median(std::move(values)));
  }
  if (!spans_path.empty() && !tracer.write_jsonl(spans_path)) {
    note(m, "spans", {"could not write " + spans_path});
  }
  return m;
}

}  // namespace pipebench
