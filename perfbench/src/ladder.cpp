// perfbench -- the two ladder workloads.
//
// trace_ladder replays CTC high-load traces through all seven schedulers
// under FCFS priority on one thread. Its end-to-end figures come from
// eight 4k-job traces, each from its own seed, so that one trace's queue
// dynamics do not decide them, and each replay is short enough to repeat
// dozens of times in a run (a 64k plan replay takes 5-12 s). The traced
// run replays one trace per rung (4k, 16k, 64k jobs) for the scaling
// exponent. audited_ladder replays four 2k-job traces through the same
// schedulers with a fatal ScheduleAuditor attached, the only workload
// that turns the auditor on. Traces are built during set-up, so the timed phase runs nothing
// from the workload, metrics or exp layers.
//
// The traced run attaches from outside the program: the scheduler is
// wrapped in a forwarding core::Scheduler decorator (which forwards the
// audit hooks too, so the auditor audits the real scheduler's state),
// and the DecisionCore in a timing type that EngineReplay drives.
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/audit.hpp"
#include "core/decision_core.hpp"
#include "core/multi_profile.hpp"
#include "core/replay.hpp"
#include "core/simulation.hpp"
#include "core/validator.hpp"
#include "exp/scenario.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

namespace core = bfsim::core;
using core::Job;
using core::JobId;
using core::Time;

/// Forwards every Scheduler call to the wrapped scheduler, spanning the
/// pass and the event hooks and counting passes that started a job.
class TracingScheduler final : public core::Scheduler {
 public:
  TracingScheduler(core::Scheduler& inner, Tracer& tracer)
      : inner_(inner),
        tracer_(tracer),
        pass_(tracer.id("core.pass")),
        hook_(tracer.id("core.hook")) {}

  bool job_submitted(const Job& job, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.job_submitted(job, now);
  }
  bool job_finished(JobId id, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.job_finished(id, now);
  }
  bool job_cancelled(JobId id, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.job_cancelled(id, now);
  }
  bool job_killed(JobId id, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.job_killed(id, now);
  }
  bool node_down(const bfsim::sim::Outage& outage, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.node_down(outage, now);
  }
  bool node_up(const bfsim::sim::Outage& outage, Time now) override {
    const Span span{&tracer_, hook_};
    return inner_.node_up(outage, now);
  }
  [[nodiscard]] Time next_wakeup() override {
    const Span span{&tracer_, hook_};
    return inner_.next_wakeup();
  }
  using core::Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    const std::size_t before = out.size();
    {
      const Span span{&tracer_, pass_};
      inner_.select_starts(now, out);
    }
    ++passes_;
    if (out.size() > before) ++useful_passes_;
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const core::SchedulerConfig& config() const override {
    return inner_.config();
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return inner_.queued_count();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return inner_.running_count();
  }
  [[nodiscard]] core::AuditHooks audit_hooks() const override {
    return inner_.audit_hooks();
  }
  [[nodiscard]] const core::MultiProfile* audit_profile() const override {
    return inner_.audit_profile();
  }
  [[nodiscard]] std::vector<core::AuditReservation> audit_reservations()
      const override {
    return inner_.audit_reservations();
  }

  [[nodiscard]] std::uint64_t passes() const { return passes_; }
  [[nodiscard]] std::uint64_t useful_passes() const { return useful_passes_; }

 private:
  core::Scheduler& inner_;
  Tracer& tracer_;
  int pass_;
  int hook_;
  std::uint64_t passes_ = 0;
  std::uint64_t useful_passes_ = 0;
};

/// The DecisionCore API EngineReplay drives, with every call spanned;
/// after each cycle it samples the size of the scheduler's profile.
class TimedCore {
 public:
  TimedCore(core::DecisionCore& core, const core::Scheduler& scheduler,
            Tracer& tracer)
      : core_(core),
        scheduler_(scheduler),
        tracer_(tracer),
        span_(tracer.id("core.decision")) {}

  void on_submit(const Job& job, Time now) {
    const Span span{&tracer_, span_};
    core_.on_submit(job, now);
  }
  void on_finish(JobId id, Time now) {
    const Span span{&tracer_, span_};
    core_.on_finish(id, now);
  }
  void on_cancel(JobId id, Time now) {
    const Span span{&tracer_, span_};
    core_.on_cancel(id, now);
  }
  void on_wake(Time now) {
    const Span span{&tracer_, span_};
    core_.on_wake(now);
  }
  void on_node_down(const bfsim::sim::Outage& outage, Time now) {
    const Span span{&tracer_, span_};
    core_.on_node_down(outage, now);
  }
  void on_node_up(bfsim::sim::OutageId id, Time now) {
    const Span span{&tracer_, span_};
    core_.on_node_up(id, now);
  }
  [[nodiscard]] core::CycleDecision end_cycle(Time now) {
    core::CycleDecision decision;
    {
      const Span span{&tracer_, span_};
      decision = core_.end_cycle(now);
    }
    if (const core::MultiProfile* profile = scheduler_.audit_profile()) {
      breakpoint_sum_ += static_cast<double>(profile->breakpoints());
      ++cycles_;
    }
    return decision;
  }
  [[nodiscard]] const core::DecisionStats& stats() const {
    return core_.stats();
  }
  [[nodiscard]] bfsim::sim::RequeuePolicy requeue_policy() const {
    return core_.requeue_policy();
  }
  [[nodiscard]] std::string name() const { return core_.name(); }

  [[nodiscard]] double mean_breakpoints() const {
    return cycles_ == 0 ? 0.0 : breakpoint_sum_ / static_cast<double>(cycles_);
  }

 private:
  core::DecisionCore& core_;
  const core::Scheduler& scheduler_;
  Tracer& tracer_;
  int span_;
  double breakpoint_sum_ = 0.0;
  std::uint64_t cycles_ = 0;
};

struct LadderSpec {
  std::size_t jobs = 0;    ///< size of each trace the end-to-end figures time
  std::size_t traces = 0;  ///< how many such traces, each from its own seed
  /// Trace sizes of the traced run, ascending; the rung of `jobs` jobs is
  /// the first timed trace.
  std::vector<std::size_t> rungs;
  bool audited = false;
};

/// What one replay of one scheduler did: its time and the work counters
/// that must repeat exactly.
struct RunStats {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t passes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t checks = 0;  ///< auditor checks (audited runs only)
  bool ok = false;

  [[nodiscard]] bool same_work(const RunStats& other) const {
    return events == other.events && passes == other.passes &&
           skipped == other.skipped && wakeups == other.wakeups &&
           checks == other.checks;
  }
};

core::SchedulerConfig ctc_config() {
  core::SchedulerConfig config;
  config.procs = bfsim::exp::machine_procs(bfsim::exp::TraceKind::Ctc);
  config.priority = core::PriorityPolicy::Fcfs;
  return config;
}

const std::string& kind_name(core::SchedulerKind kind) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all;
    for (const core::SchedulerKind k : kAllKinds)
      all.push_back(core::to_string(k));
    return all;
  }();
  return names[static_cast<std::size_t>(kind)];
}

/// One untraced replay through run_simulation, as a user calls it; an
/// audited replay attaches a caller-owned fatal auditor so its check
/// count can be read back.
RunStats plain_run(const core::Trace& trace, core::SchedulerKind kind,
                   bool audited, Report& report) {
  RunStats stats;
  try {
    const auto scheduler = core::make_scheduler(kind, ctc_config());
    std::optional<core::ScheduleAuditor> auditor;
    core::SimulationOptions options;
    if (audited) options.auditor = &auditor.emplace(*scheduler);
    const Clock::time_point start = Clock::now();
    const core::SimulationResult result =
        core::run_simulation(trace, *scheduler, options);
    stats.seconds = seconds_since(start);
    stats.events = result.events;
    stats.passes = result.passes;
    stats.skipped = result.passes_skipped;
    stats.wakeups = result.wakeups;
    stats.checks = auditor ? auditor->checks() : 0;
    stats.ok = !auditor || auditor->ok();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", kind_name(kind).c_str(),
                 error.what());
  }
  report.check(stats.ok, kind_name(kind) + " replay of " +
                             std::to_string(trace.size()) + " jobs");
  return stats;
}

/// What one traced replay measured, beyond RunStats.
struct TracedRun {
  RunStats stats;
  double replay_self_s = 0.0;
  double decision_self_s = 0.0;
  double pass_s = 0.0;
  double hook_s = 0.0;
  double useful_pass_frac = 0.0;
  double mean_breakpoints = 0.0;
};

TracedRun traced_run(const core::Trace& trace, core::SchedulerKind kind,
                     bool audited, Tracer& tracer, Report& report) {
  TracedRun run;
  tracer.reset();
  const int replay_span = tracer.id("sim.replay");
  try {
    const auto inner = core::make_scheduler(kind, ctc_config());
    TracingScheduler scheduler{*inner, tracer};
    std::optional<core::ScheduleAuditor> auditor;
    if (audited) auditor.emplace(scheduler);
    core::DecisionCore decision{scheduler, auditor ? &*auditor : nullptr};
    decision.reserve_jobs(trace.size());
    TimedCore timed{decision, scheduler, tracer};
    core::validate_replay_trace(trace, scheduler.config().procs);
    const Clock::time_point start = Clock::now();
    core::SimulationResult result;
    {
      const Span span{&tracer, replay_span};
      core::EngineReplay<TimedCore> replay{trace, timed};
      result = replay.run();
    }
    run.stats.seconds = seconds_since(start);
    run.stats.events = result.events;
    run.stats.passes = result.passes;
    run.stats.skipped = result.passes_skipped;
    run.stats.wakeups = result.wakeups;
    run.stats.checks = auditor ? auditor->checks() : 0;
    const core::ValidationReport validation =
        core::validate_schedule(trace, result.outcomes, ctc_config().procs);
    run.stats.ok = validation.ok() && (!auditor || auditor->ok());
    if (!validation.ok())
      std::fprintf(stderr, "perfbench: %s: %s\n", kind_name(kind).c_str(),
                   validation.violations.front().c_str());
    run.replay_self_s = tracer.total(replay_span).self_s;
    run.decision_self_s = tracer.total(tracer.id("core.decision")).self_s;
    run.pass_s = tracer.total(tracer.id("core.pass")).total_s;
    run.hook_s = tracer.total(tracer.id("core.hook")).total_s;
    run.useful_pass_frac =
        scheduler.passes() == 0
            ? 0.0
            : static_cast<double>(scheduler.useful_passes()) /
                  static_cast<double>(scheduler.passes());
    run.mean_breakpoints = timed.mean_breakpoints();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: traced %s: %s\n",
                 kind_name(kind).c_str(), error.what());
  }
  report.check(run.stats.ok, "traced " + kind_name(kind) + " replay (" +
                                 "schedule validation and audit)");
  return run;
}

/// Least-squares slope of log(seconds) against log(jobs).
double scale_exponent(const std::vector<std::size_t>& jobs,
                      const std::vector<double>& seconds) {
  const std::size_t n = jobs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += std::log(static_cast<double>(jobs[i]));
    my += std::log(seconds[i]);
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = std::log(static_cast<double>(jobs[i])) - mx;
    sxy += dx * (std::log(seconds[i]) - my);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

void run_ladder(const LadderSpec& spec, const Args& args, Report& report) {
  // Set-up: build the timed traces (and, for a traced run, the other
  // rungs) from the workload seed, then warm caches and the allocator
  // with one short unaudited replay per scheduler (an audited warm-up
  // would make set-up time hinge on how the auditor fares on the warm-up
  // trace).
  std::vector<core::Trace> traces, rungs;
  double build_s = 0.0;
  const double setup_s = timed_setup(kSetups, [&] {
    const Clock::time_point start = Clock::now();
    traces.clear();
    for (std::size_t t = 0; t < spec.traces; ++t)
      traces.push_back(ctc_trace(spec.jobs, args.seed * 1000 + t));
    build_s = seconds_since(start);
    rungs.clear();
    if (args.trace)
      for (std::size_t r = 0; r < spec.rungs.size(); ++r)
        rungs.push_back(spec.rungs[r] == spec.jobs
                            ? traces.front()
                            : ctc_trace(spec.rungs[r],
                                        args.seed * 1000 + 500 + r));
    const core::Trace warm = ctc_trace(500, args.seed * 1000 + 999);
    Report scratch;
    for (const core::SchedulerKind kind : kAllKinds)
      (void)plain_run(warm, kind, false, scratch);
  });
  constexpr std::size_t kKinds = std::size(kAllKinds);

  if (!args.trace) {
    // Every (trace, scheduler) replay is one unit of fastest_times, so
    // all schedulers and traces see the same stretches of machine time.
    // Each scheduler's figure sums its fastest replay of every trace,
    // and every replay must redo the first one's work.
    std::vector<RunStats> first(spec.traces * kKinds);
    const Fastest fastest = fastest_times(
        first.size(), args.seconds, [&](std::size_t unit) {
          const core::SchedulerKind kind = kAllKinds[unit % kKinds];
          const RunStats run = plain_run(traces[unit / kKinds], kind,
                                         spec.audited, report);
          if (!run.ok) return -1.0;
          if (first[unit].events == 0) first[unit] = run;
          report.check(run.same_work(first[unit]),
                       kind_name(kind) + " work counters repeat across "
                                         "replays");
          return run.seconds;
        });
    if (fastest.seconds.empty()) return;
    double wall_s = 0.0;
    std::vector<double> eps;
    for (std::size_t k = 0; k < kKinds; ++k) {
      double events = 0.0, seconds = 0.0;
      for (std::size_t t = 0; t < spec.traces; ++t) {
        events += static_cast<double>(first[t * kKinds + k].events);
        seconds += fastest.seconds[t * kKinds + k];
      }
      wall_s += seconds;
      eps.push_back(events / seconds);
      // The per-scheduler throughputs behind eps_geomean, for the reader.
      std::fprintf(stderr, "  eps.%-32s %16.6g events/s\n",
                   kind_name(kAllKinds[k]).c_str(), eps.back());
    }
    std::fprintf(stderr, "  %zu traces of %zu jobs, %zu rounds\n",
                 spec.traces, spec.jobs, fastest.rounds);
    report.set("setup_s", setup_s, "s");
    report.set("wall_s", wall_s / static_cast<double>(spec.traces), "s");
    report.set("eps_geomean", geomean(eps), "events/s");
    return;
  }
  const core::Trace& timed = traces.front();

  // Traced run. Untraced passes over every rung give the scaling
  // exponents and the counters the traced replays must reproduce; each
  // scheduler's time on a rung is the median of kPasses replays, and
  // every replay must redo the first one's work.
  constexpr int kPasses = 3;
  const auto median_pass = [&](const core::Trace& trace, bool audited) {
    std::vector<RunStats> first;
    std::vector<std::vector<double>> seconds(kKinds);
    for (int i = 0; i < kPasses; ++i)
      for (std::size_t k = 0; k < kKinds; ++k) {
        const RunStats run = plain_run(trace, kAllKinds[k], audited, report);
        if (i == 0)
          first.push_back(run);
        else
          report.check(run.same_work(first[k]),
                       kind_name(kAllKinds[k]) +
                           " work counters repeat across passes");
        seconds[k].push_back(run.seconds);
      }
    for (std::size_t k = 0; k < kKinds; ++k)
      first[k].seconds = median(seconds[k]);
    return first;
  };
  std::vector<std::vector<RunStats>> untraced;
  std::size_t timed_rung = 0;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    untraced.push_back(median_pass(rungs[r], spec.audited));
    if (spec.rungs[r] == spec.jobs) timed_rung = r;
  }
  const std::vector<RunStats>& base = untraced[timed_rung];

  Tracer tracer;
  const std::string spans_path = args.out_dir + "/spans-" + args.workload +
                                 ".jsonl";
  std::vector<TracedRun> traced;
  for (const core::SchedulerKind kind : kAllKinds) {
    traced.push_back(traced_run(timed, kind, spec.audited, tracer, report));
    write_spans(spans_path, kind_name(kind), tracer);
  }

  double untraced_wall = 0.0, traced_wall = 0.0;
  std::uint64_t events = 0, passes = 0, skipped = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string& s = kind_name(kAllKinds[k]);
    const TracedRun& run = traced[k];
    report.check(run.stats.same_work(base[k]),
                 s + " work counters equal between traced and untraced runs");
    untraced_wall += base[k].seconds;
    traced_wall += run.stats.seconds;
    events += base[k].events;
    passes += base[k].passes;
    skipped += base[k].skipped;

    report.set("eps." + s,
               static_cast<double>(base[k].events) / base[k].seconds,
               "events/s");
    report.set("sim.replay_self_s." + s, run.replay_self_s, "s");
    report.set("core.decision_self_s." + s, run.decision_self_s, "s");
    report.set("core.pass_s." + s, run.pass_s, "s");
    report.set("core.hook_s." + s, run.hook_s, "s");
    report.set("core.useful_pass_frac." + s, run.useful_pass_frac, "ratio");
    if (has_profile(kAllKinds[k]))
      report.set("core.profile_breakpoints." + s, run.mean_breakpoints,
                 "count");
    report.set("core.passes." + s, static_cast<double>(base[k].passes),
               "count");
    report.set("core.passes_skipped." + s,
               static_cast<double>(base[k].skipped), "count");
    report.set("core.wakeups." + s, static_cast<double>(base[k].wakeups),
               "count");
    std::vector<double> seconds;
    for (const std::vector<RunStats>& rung : untraced)
      seconds.push_back(rung[k].seconds);
    report.set("core.scale_exp." + s, scale_exponent(spec.rungs, seconds),
               "slope");
  }
  if (spec.audited) {
    // Audited and bare replays alternate, so both see the same stretch of
    // machine time; the overhead is the median of their ratios.
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string& s = kind_name(kAllKinds[k]);
      std::vector<double> ratios;
      for (int i = 0; i < kPasses; ++i) {
        const RunStats audited = plain_run(timed, kAllKinds[k], true, report);
        const RunStats bare = plain_run(timed, kAllKinds[k], false, report);
        ratios.push_back(audited.seconds / bare.seconds);
      }
      report.set("audit.overhead." + s, median(ratios), "ratio");
      report.set("audit.checks." + s, static_cast<double>(base[k].checks),
                 "count");
    }
  }
  report.set("workload.build_s", build_s, "s");
  report.set("core.events", static_cast<double>(events), "count");
  report.set("core.passes", static_cast<double>(passes), "count");
  report.set("core.passes_skipped", static_cast<double>(skipped), "count");
  report.set("trace_overhead", traced_wall / untraced_wall, "ratio");
}

}  // namespace

void run_trace_ladder(const Args& args, Report& report) {
  run_ladder({4000, 8, {4000, 16000, 64000}, false}, args, report);
}

void run_audited_ladder(const Args& args, Report& report) {
  run_ladder({2000, 4, {2000}, true}, args, report);
}

}  // namespace perfbench
