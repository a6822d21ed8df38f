#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "runner.h"
#include "scenario/library.h"
#include "util/stats.h"

namespace pipebench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One stage's Equation 1 term, U(1 - U/2) / (1 - U).
double term(double u) {
  return u >= 1.0 ? kInf : u * (1.0 - u / 2.0) / (1.0 - u);
}

double total_of(const std::vector<double>& totals, std::int32_t proc) {
  return proc >= 0 && static_cast<std::size_t>(proc) < totals.size()
             ? totals[static_cast<std::size_t>(proc)]
             : 0.0;
}

/// Equation 1 left-hand side of `footprint` against `totals`, computed here
/// and not by the program; +inf when a visited processor is saturated.
double equation1_lhs(const std::vector<double>& totals,
                     const std::vector<std::int32_t>& footprint) {
  double lhs = 0.0;
  for (const std::int32_t p : footprint) lhs += term(total_of(totals, p));
  return lhs;
}

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

std::string counts(const char* what, std::uint64_t a, std::uint64_t b) {
  return std::string(what) + " (" + std::to_string(a) + " vs " +
         std::to_string(b) + ")";
}

}  // namespace

RunOutcome summarize(const rtcm::scenario::ScenarioSpec& spec,
                     rtcm::core::SystemRuntime& runtime,
                     const rtcm::reconfig::ReconfigurationManager* manager) {
  const rtcm::core::MetricsCollector& metrics = runtime.metrics();
  RunOutcome out;
  out.arrivals = metrics.total().arrivals;
  out.releases = metrics.total().releases;
  out.rejections = metrics.total().rejections;
  out.completions = metrics.total().completions;
  out.deadline_misses = metrics.total().deadline_misses;
  out.accept_ratio = metrics.accepted_utilization_ratio();
  // Same fold as run_scenario, so equal runs give bitwise-equal means.
  rtcm::OnlineStats response;
  for (const auto& [task, tm] : metrics.per_task()) {
    if (runtime.tasks().find(task)->kind == rtcm::sched::TaskKind::kAperiodic) {
      response.merge(tm.response_ms);
    }
  }
  out.aperiodic_response_ms = response.count() > 0 ? response.mean() : 0.0;
  for (const rtcm::sched::TaskSpec& task : runtime.tasks().tasks()) {
    TaskOutcome t;
    t.task = task.id.value();
    t.deadline_ms = task.deadline.as_milliseconds();
    t.utilization = task.total_utilization();
    const auto it = metrics.per_task().find(task.id);
    if (it != metrics.per_task().end()) {
      const rtcm::core::TaskMetrics& tm = it->second;
      t.arrivals = tm.arrivals;
      t.releases = tm.releases;
      t.rejections = tm.rejections;
      t.completions = tm.completions;
      t.deadline_misses = tm.deadline_misses;
      t.max_response_ms = tm.response_ms.max();
    }
    out.tasks.push_back(t);
  }
  out.jobs_in_book = runtime.admission_control()->state().active_jobs();
  out.scripted_changes = spec.reconfig.size();
  if (manager != nullptr) {
    out.reconfig_applied = manager->applied_count();
    out.reconfig_rejected = manager->rejected_count();
    out.reconfig_outcomes = manager->history().size();
  }
  return out;
}

std::vector<std::string> check_outcome(const RunOutcome& run) {
  std::vector<std::string> bad;
  if (run.arrivals != run.releases + run.rejections) {
    bad.push_back(counts("arrivals != releases + rejections", run.arrivals,
                         run.releases + run.rejections));
  }
  if (run.completions != run.releases) {
    bad.push_back(counts("completions != releases after the drain",
                         run.completions, run.releases));
  }
  if (run.deadline_misses != 0) {
    bad.push_back(counts("deadline misses", run.deadline_misses, 0));
  }
  TaskOutcome sum;
  double released_u = 0.0;
  double arrived_u = 0.0;
  for (const TaskOutcome& t : run.tasks) {
    const std::string task = "task " + std::to_string(t.task) + ": ";
    if (t.arrivals != t.releases + t.rejections) {
      bad.push_back(task + counts("arrivals != releases + rejections",
                                  t.arrivals, t.releases + t.rejections));
    }
    if (t.completions != t.releases) {
      bad.push_back(task + counts("completions != releases", t.completions,
                                  t.releases));
    }
    if (t.deadline_misses != 0) {
      bad.push_back(task + counts("deadline misses", t.deadline_misses, 0));
    }
    if (t.max_response_ms > t.deadline_ms + kRatioTolerance) {
      bad.push_back(task + fmt("max response %.3f ms > deadline %.3f ms",
                               t.max_response_ms, t.deadline_ms));
    }
    sum.arrivals += t.arrivals;
    sum.releases += t.releases;
    sum.rejections += t.rejections;
    sum.completions += t.completions;
    sum.deadline_misses += t.deadline_misses;
    released_u += static_cast<double>(t.releases) * t.utilization;
    arrived_u += static_cast<double>(t.arrivals) * t.utilization;
  }
  if (sum.arrivals != run.arrivals || sum.releases != run.releases ||
      sum.rejections != run.rejections || sum.completions != run.completions ||
      sum.deadline_misses != run.deadline_misses) {
    bad.push_back("per-task counts do not add up to the totals");
  }
  const double ratio = arrived_u > 0.0 ? released_u / arrived_u : 1.0;
  if (!(std::fabs(ratio - run.accept_ratio) <= kRatioTolerance)) {
    bad.push_back(fmt("accept ratio %.12f, recomputed %.12f", run.accept_ratio,
                      ratio));
  }
  if (run.jobs_in_book != 0) {
    bad.push_back(counts("jobs left in the book after the drain",
                         run.jobs_in_book, 0));
  }
  if (run.reconfig_applied + run.reconfig_rejected != run.scripted_changes ||
      run.reconfig_outcomes != run.scripted_changes) {
    bad.push_back(counts("mode-change outcomes vs scripted changes",
                         run.reconfig_outcomes, run.scripted_changes));
  }
  return bad;
}

BookSnapshot snapshot_book(const rtcm::core::SchedulingState& state) {
  BookSnapshot book;
  const rtcm::sched::UtilizationLedger& ledger = state.ledger();
  for (std::uint32_t slot = 0; slot < ledger.proc_slot_count(); ++slot) {
    const auto proc = static_cast<std::size_t>(ledger.proc_at(slot).value());
    if (book.totals.size() <= proc) book.totals.resize(proc + 1, 0.0);
    book.totals[proc] = ledger.total_at(slot);
  }
  for (const rtcm::sched::TaskFootprint& fp : state.current_footprints()) {
    std::vector<std::int32_t> procs;
    for (const rtcm::ProcessorId p : fp.processors) procs.push_back(p.value());
    book.footprints.push_back(std::move(procs));
  }
  return book;
}

std::vector<std::string> check_book(const BookSnapshot& book) {
  std::vector<std::string> bad;
  for (std::size_t f = 0; f < book.footprints.size(); ++f) {
    const double lhs = equation1_lhs(book.totals, book.footprints[f]);
    if (!(lhs <= 1.0 + kBoundTolerance)) {
      bad.push_back(fmt("footprint %.0f has Equation 1 LHS %.9f > 1",
                        static_cast<double>(f), lhs));
    }
  }
  return bad;
}

BookJudge::BookJudge(const BookSnapshot& book)
    : book_(book), min_base_margin_(kInf) {
  for (std::size_t f = 0; f < book.footprints.size(); ++f) {
    const double lhs = equation1_lhs(book.totals, book.footprints[f]);
    all_base_ok_ = all_base_ok_ && lhs <= 1.0;
    min_base_margin_ = std::min(min_base_margin_, std::fabs(lhs - 1.0));
    for (const std::int32_t p : book.footprints[f]) {
      const auto proc = static_cast<std::size_t>(p);
      if (by_proc_.size() <= proc) by_proc_.resize(proc + 1);
      if (by_proc_[proc].empty() || by_proc_[proc].back() != f) {
        by_proc_[proc].push_back(static_cast<std::uint32_t>(f));
      }
    }
  }
}

OwnDecision BookJudge::decide(
    const std::vector<std::pair<std::int32_t, double>>& stages) const {
  // The candidate's tentative additions, merged per processor.
  std::vector<std::pair<std::int32_t, double>> overlay;
  for (const auto& [proc, u] : stages) {
    auto it = std::find_if(overlay.begin(), overlay.end(),
                           [p = proc](const auto& e) { return e.first == p; });
    if (it == overlay.end()) overlay.emplace_back(proc, u);
    else it->second += u;
  }
  const auto with_overlay = [&](std::int32_t p) {
    double u = total_of(book_.totals, p);
    for (const auto& [proc, add] : overlay) {
      if (proc == p) u += add;
    }
    return u;
  };

  double candidate = 0.0;
  for (const auto& stage : stages) candidate += term(with_overlay(stage.first));
  OwnDecision d;
  d.admitted = candidate <= 1.0 && all_base_ok_;
  // Footprints that share no processor with the candidate keep their base
  // LHS; min_base_margin_ covers them (and is a lower bound for the rest).
  d.margin = std::min(std::fabs(candidate - 1.0), min_base_margin_);
  std::vector<char> seen(book_.footprints.size(), 0);
  for (const auto& [proc, add] : overlay) {
    const auto p = static_cast<std::size_t>(proc);
    if (p >= by_proc_.size()) continue;
    for (const std::uint32_t f : by_proc_[p]) {
      if (seen[f]) continue;
      seen[f] = 1;
      double lhs = 0.0;
      for (const std::int32_t q : book_.footprints[f]) {
        lhs += term(with_overlay(q));
      }
      d.admitted = d.admitted && lhs <= 1.0;
      d.margin = std::min(d.margin, std::fabs(lhs - 1.0));
    }
  }
  return d;
}

std::string check_agreement(const OwnDecision& own, bool program_admitted) {
  if (own.margin <= kBoundTolerance || own.admitted == program_admitted) {
    return "";
  }
  char margin[64];
  std::snprintf(margin, sizeof margin, " (%.3g from the bound)", own.margin);
  return std::string("admission_test ") +
         (program_admitted ? "admits" : "rejects") +
         " but Equation 1 recomputed from ledger totals " +
         (own.admitted ? "admits" : "rejects") + margin;
}

// --- Self-test ---------------------------------------------------------------

namespace {

struct Case {
  const char* name;
  bool caught;
};

}  // namespace

int run_self_test() {
  // A real run with a mode-change script: the drain-storm grid's storm
  // variant, cut to a short horizon.
  auto grid = rtcm::scenario::find_grid("drain-storm");
  if (!grid.is_ok()) {
    std::fprintf(stderr, "self-test: %s\n", grid.message().c_str());
    return 1;
  }
  const rtcm::sweep::Cell cell{"J_J_J", grid.value().grid.shapes.front().name,
                               "storm", 7};
  rtcm::sweep::SweepParams params = grid.value().params;
  params.base.horizon = rtcm::Duration::seconds(20);
  auto spec = rtcm::sweep::cell_spec(
      cell, grid.value().grid.shapes.front().shape, params);
  if (!spec.is_ok()) return 1;

  auto prepared = prepare(spec.value());
  if (!prepared.is_ok()) {
    std::fprintf(stderr, "self-test: %s\n", prepared.message().c_str());
    return 1;
  }
  const Prepared& p = prepared.value();
  // Pause mid-run, while jobs are admitted, for a real book.
  p.runtime->run_until(rtcm::Time::epoch() + rtcm::Duration::seconds(5));
  const BookSnapshot book =
      snapshot_book(p.runtime->admission_control()->state());
  p.runtime->run_until(p.end);
  const RunOutcome run = summarize(spec.value(), *p.runtime, p.manager.get());

  const bool baseline_clean = check_outcome(run).empty() &&
                              check_book(book).empty() &&
                              !book.footprints.empty() &&
                              run.scripted_changes > 0 && run.releases > 0;
  std::vector<Case> cases;
  const auto caught = [](const std::vector<std::string>& v) {
    return !v.empty();
  };

  RunOutcome miss = run;
  miss.deadline_misses += 1;
  miss.tasks.front().deadline_misses += 1;
  cases.push_back({"one deadline miss (counter)", caught(check_outcome(miss))});

  RunOutcome late = run;
  for (TaskOutcome& t : late.tasks) {
    if (t.completions > 0) {
      t.max_response_ms = t.deadline_ms + 0.001;
      break;
    }
  }
  cases.push_back({"one deadline miss (response > deadline)",
                   caught(check_outcome(late))});

  RunOutcome lost = run;
  lost.arrivals += 1;
  lost.tasks.front().arrivals += 1;
  cases.push_back({"one lost arrival", caught(check_outcome(lost))});

  RunOutcome unfinished = run;
  unfinished.completions -= 1;
  for (TaskOutcome& t : unfinished.tasks) {
    if (t.completions > 0) {
      t.completions -= 1;
      break;
    }
  }
  cases.push_back({"one released job never completed",
                   caught(check_outcome(unfinished))});

  RunOutcome ratio = run;
  ratio.accept_ratio += 1e-6;
  cases.push_back({"accept ratio off by 1e-6", caught(check_outcome(ratio))});

  RunOutcome stale = run;
  stale.jobs_in_book = 1;
  cases.push_back({"a job left in the book", caught(check_outcome(stale))});

  RunOutcome missing = run;
  missing.reconfig_outcomes -= 1;
  if (missing.reconfig_applied > 0) missing.reconfig_applied -= 1;
  else missing.reconfig_rejected -= 1;
  cases.push_back({"a missing mode-change outcome",
                   caught(check_outcome(missing))});

  BookSnapshot over = book;
  const auto proc = static_cast<std::size_t>(over.footprints.front().front());
  if (over.totals.size() <= proc) over.totals.resize(proc + 1, 0.0);
  over.totals[proc] = 0.9;
  cases.push_back({"a footprint over Equation 1", caught(check_book(over))});

  cases.push_back({"admission_test disagreeing with Equation 1",
                   !check_agreement({true, 0.5}, false).empty()});

  bool ok = baseline_clean;
  std::printf("%-45s %s\n", "unmodified result passes every check",
              baseline_clean ? "ok" : "FAILED");
  for (const Case& c : cases) {
    std::printf("%-45s %s\n", c.name, c.caught ? "caught" : "NOT CAUGHT");
    ok = ok && c.caught;
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace pipebench
