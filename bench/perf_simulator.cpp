// P1 -- performance measurement of the simulator substrate.
//
// Two personalities in one binary:
//
//   * default: google-benchmark microbenchmarks of profile operations,
//     full scheduler runs (events/second), workload generation and the
//     RNG -- interactive regression hunting;
//   * --profile-report [--jobs N] [--out FILE]: machine-readable numbers
//     for the profile hot path on CTC-shaped synthetic high-load traces
//     (events/sec per scheduler, ns per anchor on a fragmented profile,
//     breakpoint counts during a conservative run), written as JSON to
//     BENCH_profile.json;
//   * --smoke [--baseline FILE]: CI guard. Re-measures the conservative
//     *cost factor* (EASY events/sec divided by conservative events/sec
//     -- a same-machine ratio, so it normalizes out hardware speed) and
//     exits 1 if it regressed more than 2x against the checked-in
//     bench/perf_baseline.json; the auditor's overhead ratios and the
//     served front's in-process overhead are banded the same way;
//   * --audit-overhead [--jobs N]: audited / bare replay time of the
//     profile-keeping schedulers (conservative, slack, plan) over three
//     N-job CTC traces, one JSON line each -- the auditor's scaling with
//     trace size.
//
// Both report modes also count deterministic work on the report's trace
// and on an actual-estimate twin: jobs plan re-anchored, promotion
// checks selective made, conservative's compression probes, moves and
// width-bound skips, and the matches nobackfill-xfactor's head
// tournament played. --smoke fails when plan re-anchors more than one
// job per submitted job on the exact-estimate FCFS trace (the stateless
// replan re-anchored the whole queue at every pass); when an audited
// replay of conservative, slack or plan rebuilds the auditor's kept
// timeline more often than the baseline's `audit_reseeds` records (0;
// ScheduleAuditor::reseeds()); when the head tournament plays more than
// kMaxHeadUpdatesPerEvent matches per event on the exact trace; and when
// the width bound skips less than kMinCompressionSkipShare of the jobs
// compression visits on the actual-estimate twin. --profile-report also
// times nobackfill-xfactor at 4k, 16k and 64k jobs (its scaling rung).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.hpp"
#include "core/conservative_scheduler.hpp"
#include "core/decision_core.hpp"
#include "core/fcfs_scheduler.hpp"
#include "core/multi_profile.hpp"
#include "core/plan_scheduler.hpp"
#include "core/profile.hpp"
#include "core/selective_scheduler.hpp"
#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "metrics/report.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/session.hpp"
#include "workload/synthetic.hpp"
#include "workload/transforms.hpp"

namespace {

using namespace bfsim;

// ---------------------------------------------------------------------------
// Microbenchmarks (google-benchmark).
// ---------------------------------------------------------------------------

void BM_ProfileReserveRelease(benchmark::State& state) {
  core::Profile profile{128};
  sim::Rng rng{1};
  std::int64_t t = 0;
  for (auto _ : state) {
    const sim::Time begin = t % 100000;
    const sim::Time end = sim::checked::add(begin, 1, t % 500);
    profile.reserve(begin, end, 16);
    profile.release(begin, end, 16);
    ++t;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileReserveRelease);

void BM_ProfileEarliestAnchor(benchmark::State& state) {
  // A realistically fragmented profile with ~64 live reservations.
  core::Profile profile{128};
  sim::Rng rng{2};
  for (int i = 0; i < 64; ++i) {
    const sim::Time begin = rng.uniform_int(0, 50000);
    profile.reserve(begin,
                    sim::saturating_add(begin, rng.uniform_int(100, 5000)),
                    static_cast<int>(rng.uniform_int(1, 32)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile.earliest_anchor(
        static_cast<int>(rng.uniform_int(1, 64)), rng.uniform_int(10, 2000),
        rng.uniform_int(0, 40000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileEarliestAnchor);

void BM_ProfileFindAndReserve(benchmark::State& state) {
  // The fused hot-path call the schedulers actually make: search and
  // reserve in one traversal, then undo so the profile shape is stable.
  core::Profile profile{128};
  sim::Rng rng{2};
  for (int i = 0; i < 64; ++i) {
    const sim::Time begin = rng.uniform_int(0, 50000);
    profile.reserve(begin,
                    sim::saturating_add(begin, rng.uniform_int(100, 5000)),
                    static_cast<int>(rng.uniform_int(1, 32)));
  }
  for (auto _ : state) {
    const int procs = static_cast<int>(rng.uniform_int(1, 64));
    const sim::Time dur = rng.uniform_int(10, 2000);
    const sim::Time anchor =
        profile.find_and_reserve(procs, dur, rng.uniform_int(0, 40000));
    benchmark::DoNotOptimize(anchor);
    profile.release(anchor, sim::saturating_add(anchor, dur), procs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileFindAndReserve);

void BM_MultiProfileFindAndReserveAxis0(benchmark::State& state) {
  // The generalized profile on a procs-only workload (bb = 0): must
  // track BM_ProfileFindAndReserve -- the axis-0 no-regression claim
  // the smoke guard checks as a ratio.
  core::MultiProfile profile{128};
  sim::Rng rng{2};
  for (int i = 0; i < 64; ++i) {
    const sim::Time begin = rng.uniform_int(0, 50000);
    profile.reserve(begin,
                    sim::saturating_add(begin, rng.uniform_int(100, 5000)),
                    static_cast<int>(rng.uniform_int(1, 32)), 0);
  }
  for (auto _ : state) {
    const int procs = static_cast<int>(rng.uniform_int(1, 64));
    const sim::Time dur = rng.uniform_int(10, 2000);
    const sim::Time anchor =
        profile.find_and_reserve(procs, 0, dur, rng.uniform_int(0, 40000));
    benchmark::DoNotOptimize(anchor);
    profile.release(anchor, sim::saturating_add(anchor, dur), procs, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiProfileFindAndReserveAxis0);

void BM_MultiProfileFindAndReserveTwoAxis(benchmark::State& state) {
  // Both axes live: the second axis adds one comparison per segment.
  core::MultiProfile profile{128, 1024};
  sim::Rng rng{2};
  for (int i = 0; i < 64; ++i) {
    const sim::Time begin = rng.uniform_int(0, 50000);
    profile.reserve(begin,
                    sim::saturating_add(begin, rng.uniform_int(100, 5000)),
                    static_cast<int>(rng.uniform_int(1, 32)),
                    static_cast<int>(rng.uniform_int(0, 256)));
  }
  for (auto _ : state) {
    const int procs = static_cast<int>(rng.uniform_int(1, 64));
    const int bb = static_cast<int>(rng.uniform_int(0, 256));
    const sim::Time dur = rng.uniform_int(10, 2000);
    const sim::Time anchor =
        profile.find_and_reserve(procs, bb, dur, rng.uniform_int(0, 40000));
    benchmark::DoNotOptimize(anchor);
    profile.release(anchor, sim::saturating_add(anchor, dur), procs, bb);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiProfileFindAndReserveTwoAxis);

workload::Trace bench_trace(exp::TraceKind kind, std::size_t jobs,
                            exp::EstimateSpec estimates = {}) {
  exp::Scenario scenario;
  scenario.trace = kind;
  scenario.jobs = jobs;
  scenario.load = exp::kHighLoad;
  scenario.estimates = estimates;
  scenario.seed = 7;
  return exp::build_workload(scenario);
}

void BM_SimulateEasy(benchmark::State& state) {
  const auto trace =
      bench_trace(exp::TraceKind::Sdsc, static_cast<std::size_t>(state.range(0)));
  const core::SchedulerConfig config{128, core::PriorityPolicy::Sjf};
  for (auto _ : state) {
    auto result =
        core::run_simulation(trace, core::SchedulerKind::Easy, config);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()) * 2);
  state.SetLabel("events");
}
BENCHMARK(BM_SimulateEasy)->Arg(1000)->Arg(4000);

void BM_SimulateConservative(benchmark::State& state) {
  const auto trace =
      bench_trace(exp::TraceKind::Sdsc, static_cast<std::size_t>(state.range(0)));
  const core::SchedulerConfig config{128, core::PriorityPolicy::Fcfs};
  for (auto _ : state) {
    auto result = core::run_simulation(
        trace, core::SchedulerKind::Conservative, config);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()) * 2);
  state.SetLabel("events");
}
BENCHMARK(BM_SimulateConservative)->Arg(1000)->Arg(4000);

void BM_GenerateWorkload(benchmark::State& state) {
  const workload::CategoryMixModel model{workload::CategoryMixModel::ctc()};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Rng rng{seed++};
    auto trace = model.generate(static_cast<std::size_t>(state.range(0)), rng);
    benchmark::DoNotOptimize(trace.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateWorkload)->Arg(10000);

void BM_RngGamma(benchmark::State& state) {
  sim::Rng rng{3};
  for (auto _ : state) benchmark::DoNotOptimize(rng.gamma(2.5, 100.0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGamma);

// ---------------------------------------------------------------------------
// --profile-report / --smoke: machine-readable numbers for the hot path.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  // Spelled out: the linter reads `Clock::now()` as sim::Engine::now().
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SimPoint {
  std::string scheme;
  std::uint64_t events = 0;
  std::uint64_t passes = 0;          ///< select_starts cycles executed
  std::uint64_t passes_skipped = 0;  ///< batches the driver proved no-op
  std::uint64_t wakeups = 0;         ///< timer events for reservations
  double seconds = 0.0;
  double events_per_sec = 0.0;
};

/// Best-of-five timed simulation runs (first run doubles as warm-up).
/// Minimum, not mean: on shared hardware the distribution is the true
/// cost plus one-sided interference noise, so the fastest rep is the
/// least-contaminated estimate.
SimPoint measure_sim(const workload::Trace& trace, core::SchedulerKind kind,
                     core::PriorityPolicy priority, int procs) {
  const core::SchedulerConfig config{procs, priority};
  SimPoint point;
  point.scheme =
      core::to_string(kind) + "-" + core::to_string(priority);
  point.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    auto result = core::run_simulation(trace, kind, config);
    const double elapsed = seconds_since(start);
    benchmark::DoNotOptimize(result.makespan);
    point.events = result.events;
    point.passes = result.passes;
    point.passes_skipped = result.passes_skipped;
    point.wakeups = result.wakeups;
    point.seconds = std::min(point.seconds, elapsed);
  }
  point.events_per_sec =
      static_cast<double>(point.events) / point.seconds;
  return point;
}

struct AnchorStats {
  std::size_t breakpoints = 0;  ///< segments in the fragmented profile
  double ns_per_anchor = 0.0;
  double ns_per_find_and_reserve = 0.0;
  /// Same queries against a MultiProfile with the buffer axis absent
  /// (total_bb = 0, demands 0).
  double ns_per_find_and_reserve_multi = 0.0;
  /// multi / single-axis cost: the generalization's axis-0 overhead
  /// (1.0 = free). The smoke guard bands this ratio.
  double multi_axis0_ratio = 1.0;
};

/// Time anchor searches against a CTC-shaped fragmented profile: one
/// rectangle per job from the head of the trace, staggered in time.
AnchorStats measure_anchors(const workload::Trace& trace, int procs) {
  core::Profile profile{procs};
  sim::Rng rng{11};
  sim::Time clock = 0;
  for (std::size_t i = 0; i < trace.size() && i < 400; ++i) {
    const workload::Job& job = trace[i];
    clock = sim::saturating_add(clock, rng.uniform_int(0, 2000));
    const sim::Time begin =
        profile.earliest_anchor(job.procs, job.estimate, clock);
    profile.reserve(begin, sim::saturating_add(begin, job.estimate),
                    job.procs);
  }
  AnchorStats stats;
  stats.breakpoints = profile.segments().size();

  constexpr int kQueries = 200000;
  struct Query {
    int procs;
    sim::Time dur, from;
  };
  std::vector<Query> queries(kQueries);
  for (Query& q : queries) {
    q.procs = static_cast<int>(rng.uniform_int(1, procs));
    q.dur = rng.uniform_int(10, 20000);
    q.from = rng.uniform_int(0, clock);
  }

  auto start = Clock::now();
  for (const Query& q : queries)
    benchmark::DoNotOptimize(profile.earliest_anchor(q.procs, q.dur, q.from));
  stats.ns_per_anchor = seconds_since(start) * 1e9 / kQueries;

  // Best of three for both sides of the ratio below: the same noise
  // model as measure_sim, and a fair denominator.
  double best_single = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    start = Clock::now();
    for (const Query& q : queries) {
      const sim::Time anchor =
          profile.find_and_reserve(q.procs, q.dur, q.from);
      benchmark::DoNotOptimize(anchor);
      profile.release(anchor, sim::saturating_add(anchor, q.dur), q.procs);
    }
    best_single = std::min(best_single, seconds_since(start) * 1e9 / kQueries);
  }
  stats.ns_per_find_and_reserve = best_single;

  // The same fragmented timeline and query stream against the
  // generalized profile with the buffer axis absent: the procs-only
  // no-regression measurement.
  core::MultiProfile multi{procs};
  {
    sim::Rng rebuild{11};
    sim::Time t = 0;
    for (std::size_t i = 0; i < trace.size() && i < 400; ++i) {
      const workload::Job& job = trace[i];
      t = sim::saturating_add(t, rebuild.uniform_int(0, 2000));
      const sim::Time begin = multi.earliest_anchor(job.procs, 0,
                                                    job.estimate, t);
      multi.reserve(begin, sim::saturating_add(begin, job.estimate),
                    job.procs, 0);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    start = Clock::now();
    for (const Query& q : queries) {
      const sim::Time anchor =
          multi.find_and_reserve(q.procs, 0, q.dur, q.from);
      benchmark::DoNotOptimize(anchor);
      multi.release(anchor, sim::saturating_add(anchor, q.dur), q.procs, 0);
    }
    best = std::min(best, seconds_since(start) * 1e9 / kQueries);
  }
  stats.ns_per_find_and_reserve_multi = best;
  stats.multi_axis0_ratio =
      stats.ns_per_find_and_reserve_multi / stats.ns_per_find_and_reserve;
  return stats;
}

struct BreakpointStats {
  std::size_t peak = 0;
  double mean = 0.0;
};

/// Replay the trace through a conservative scheduler by hand (the same
/// event discipline as core::run_simulation) and sample the profile's
/// breakpoint count after every event batch.
BreakpointStats measure_breakpoints(const workload::Trace& trace, int procs) {
  core::ConservativeScheduler scheduler{
      core::SchedulerConfig{procs, core::PriorityPolicy::Fcfs}};
  // priority_class 0 = finish, 1 = submit (completions first, as in the
  // production event loop); payload = job id.
  sim::EventQueue<std::size_t> events;
  for (std::size_t i = 0; i < trace.size(); ++i)
    events.push(trace[i].submit, 1, i);

  BreakpointStats stats;
  double sum = 0.0;
  std::size_t samples = 0;
  while (!events.empty()) {
    const sim::Time now = events.top().time;
    while (!events.empty() && events.top().time == now) {
      const auto event = events.pop();
      if (event.priority_class() == 0) {
        scheduler.job_finished(event.payload, now);
      } else {
        scheduler.job_submitted(trace[event.payload], now);
      }
    }
    for (const core::Job& job : scheduler.select_starts(now))
      events.push(sim::saturating_add(now, std::min(job.runtime, job.estimate)),
                  0, job.id);
    const std::size_t size = scheduler.profile().segments().size();
    stats.peak = std::max(stats.peak, size);
    sum += static_cast<double>(size);
    ++samples;
  }
  stats.mean = samples == 0 ? 0.0 : sum / static_cast<double>(samples);
  return stats;
}

struct DecisionLatencyStats {
  double submit_p50_ns = 0.0;  ///< one on_submit through the seam
  double submit_p99_ns = 0.0;
  double finish_p50_ns = 0.0;  ///< one on_finish through the seam
  double finish_p99_ns = 0.0;
  double seam_seconds = 0.0;    ///< full replay through DecisionCore
  double direct_seconds = 0.0;  ///< same events via raw scheduler hooks
  /// Seam cost relative to bare hooks (1.0 = free). The seam's skip
  /// accounting can push this *below* 1: the direct path runs a pass
  /// per batch, the seam proves most of them no-ops.
  double seam_overhead = 1.0;
};

double percentile(std::vector<double>& sorted_into, double p) {
  if (sorted_into.empty()) return 0.0;
  std::sort(sorted_into.begin(), sorted_into.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted_into.size() - 1) + 0.5);
  return sorted_into[std::min(index, sorted_into.size() - 1)];
}

/// Latency of the decision-core seam itself: the same event sequence
/// replayed (a) through DecisionCore -- lifecycle table, stats, skip
/// accounting -- and (b) through bare Scheduler hooks with a pass per
/// batch, the pre-seam driver's discipline. (a) additionally samples
/// per-call latency of every on_submit/on_finish for p50/p99.
DecisionLatencyStats measure_decision_latency(const workload::Trace& trace,
                                              int procs) {
  const core::SchedulerConfig config{procs, core::PriorityPolicy::Fcfs};
  // Event classes mirror the replay front: finish=0, submit=1, wake=2.
  const auto run_seam = [&](std::vector<double>* submit_ns,
                            std::vector<double>* finish_ns) {
    const auto scheduler =
        core::make_scheduler(core::SchedulerKind::Easy, config);
    core::DecisionCore core{*scheduler};
    core.reserve_jobs(trace.size());
    sim::EventQueue<std::size_t> events;
    for (std::size_t i = 0; i < trace.size(); ++i)
      events.push(trace[i].submit, 1, i);
    while (!events.empty()) {
      const sim::Time now = events.top().time;
      while (!events.empty() && events.top().time == now) {
        const auto event = events.pop();
        if (event.priority_class() == 0) {
          const auto start = Clock::now();
          core.on_finish(static_cast<workload::JobId>(event.payload), now);
          if (finish_ns != nullptr)
            finish_ns->push_back(seconds_since(start) * 1e9);
        } else if (event.priority_class() == 1) {
          const auto start = Clock::now();
          core.on_submit(trace[event.payload], now);
          if (submit_ns != nullptr)
            submit_ns->push_back(seconds_since(start) * 1e9);
        } else {
          core.on_wake(now);
        }
      }
      const core::CycleDecision decision = core.end_cycle(now);
      for (const workload::JobId id : decision.starts) {
        const workload::Job& job = trace[id];
        events.push(
            sim::saturating_add(now, std::min(job.runtime, job.estimate)), 0,
            id);
      }
      if (decision.next_wakeup != sim::kNoTime &&
          (events.empty() || events.top().time > decision.next_wakeup))
        events.push(decision.next_wakeup, 2, 0);
    }
  };
  const auto run_direct = [&] {
    const auto scheduler =
        core::make_scheduler(core::SchedulerKind::Easy, config);
    sim::EventQueue<std::size_t> events;
    for (std::size_t i = 0; i < trace.size(); ++i)
      events.push(trace[i].submit, 1, i);
    std::vector<core::Job> starts;
    while (!events.empty()) {
      const sim::Time now = events.top().time;
      while (!events.empty() && events.top().time == now) {
        const auto event = events.pop();
        if (event.priority_class() == 0)
          scheduler->job_finished(event.payload, now);
        else
          scheduler->job_submitted(trace[event.payload], now);
      }
      starts.clear();
      scheduler->select_starts(now, starts);
      for (const core::Job& job : starts)
        events.push(
            sim::saturating_add(now, std::min(job.runtime, job.estimate)), 0,
            job.id);
    }
  };

  DecisionLatencyStats stats;
  stats.seam_seconds = std::numeric_limits<double>::infinity();
  stats.direct_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    run_seam(nullptr, nullptr);
    stats.seam_seconds = std::min(stats.seam_seconds, seconds_since(start));
    start = Clock::now();
    run_direct();
    stats.direct_seconds =
        std::min(stats.direct_seconds, seconds_since(start));
  }
  stats.seam_overhead = stats.seam_seconds / stats.direct_seconds;
  // One instrumented replay for the per-hook percentiles (the per-call
  // clock reads would distort the timed reps above).
  std::vector<double> submit_ns;
  std::vector<double> finish_ns;
  run_seam(&submit_ns, &finish_ns);
  stats.submit_p50_ns = percentile(submit_ns, 0.50);
  stats.submit_p99_ns = percentile(submit_ns, 0.99);
  stats.finish_p50_ns = percentile(finish_ns, 0.50);
  stats.finish_p99_ns = percentile(finish_ns, 0.99);
  return stats;
}

struct ServedCodecStats {
  double served_seconds = 0.0;  ///< served_run over a LocalChannel
  double direct_seconds = 0.0;  ///< run_simulation on the same trace
  /// served / direct (1.0 = free): what the served front adds in
  /// process -- frame encoding and parsing, the session and the replay
  /// client -- without a socket hop. The smoke guard bands it.
  double overhead = 1.0;
};

/// The served front's in-process overhead on conservative-fcfs: the
/// fastest of five interleaved served_run replays (RemoteDecisionCore
/// over a LocalChannel into a fresh Session) over the fastest of five
/// run_simulation replays of the same trace.
ServedCodecStats measure_served_codec(const workload::Trace& trace,
                                      int procs) {
  svc::HelloRequest hello;
  hello.kind = core::SchedulerKind::Conservative;
  hello.config = {procs, core::PriorityPolicy::Fcfs};
  ServedCodecStats stats;
  stats.served_seconds = std::numeric_limits<double>::infinity();
  stats.direct_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    benchmark::DoNotOptimize(
        core::run_simulation(trace, hello.kind, hello.config).makespan);
    stats.direct_seconds =
        std::min(stats.direct_seconds, seconds_since(start));
    svc::Session session;
    svc::LocalChannel channel{session};
    start = Clock::now();
    benchmark::DoNotOptimize(svc::served_run(trace, channel, hello).makespan);
    stats.served_seconds =
        std::min(stats.served_seconds, seconds_since(start));
  }
  stats.overhead = stats.served_seconds / stats.direct_seconds;
  return stats;
}

struct AuditOverhead {
  std::string scheme;
  double bare_seconds = 0.0;
  double audited_seconds = 0.0;
  /// audited / bare (1.0 = free): the auditor's cost as a same-machine
  /// ratio. The smoke guard bands it.
  double ratio = 1.0;
  std::uint64_t checks = 0;  ///< ScheduleAuditor::checks(), summed
  /// ScheduleAuditor::reseeds(), summed: full rebuilds of the kept
  /// timeline, deterministic on any machine.
  std::uint64_t reseeds = 0;
};

/// The auditor's overhead on one scheduler over `traces`: per trace, the
/// fastest of interleaved bare and fatally audited replays (five pairs,
/// up to fifty while under a second, fewer once ten seconds have passed
/// on archive-size traces), summed over the traces.
AuditOverhead measure_audit_overhead(
    const std::vector<workload::Trace>& traces, core::SchedulerKind kind,
    int procs) {
  const core::SchedulerConfig config{procs, core::PriorityPolicy::Fcfs};
  AuditOverhead point;
  point.scheme = core::to_string(kind) + "-" + core::to_string(config.priority);
  for (const workload::Trace& trace : traces) {
    double bare_best = std::numeric_limits<double>::infinity();
    double audited_best = std::numeric_limits<double>::infinity();
    std::uint64_t checks = 0;
    std::uint64_t reseeds = 0;
    const auto begin = Clock::now();
    for (int rep = 0; rep < 50; ++rep) {
      const double elapsed = seconds_since(begin);
      if (rep > 0 && (elapsed > 10.0 || (rep >= 5 && elapsed > 1.0))) break;
      const auto bare = core::make_scheduler(kind, config);
      auto start = Clock::now();
      benchmark::DoNotOptimize(core::run_simulation(trace, *bare).makespan);
      bare_best = std::min(bare_best, seconds_since(start));
      const auto audited = core::make_scheduler(kind, config);
      core::ScheduleAuditor auditor{*audited};
      start = Clock::now();
      benchmark::DoNotOptimize(
          core::run_simulation(trace, *audited, {.auditor = &auditor})
              .makespan);
      audited_best = std::min(audited_best, seconds_since(start));
      checks = auditor.checks();
      reseeds = auditor.reseeds();
    }
    point.bare_seconds += bare_best;
    point.audited_seconds += audited_best;
    point.checks += checks;
    point.reseeds += reseeds;
  }
  point.ratio = point.audited_seconds / point.bare_seconds;
  return point;
}

/// Deterministic work counters of the schedulers that keep state
/// between events, on one trace under FCFS. They repeat exactly on any
/// machine, so they gate without a tolerance.
struct WorkCounters {
  std::string regime;                   ///< the trace's estimate regime
  std::uint64_t jobs = 0;               ///< jobs submitted
  std::uint64_t plan_reanchored = 0;    ///< PlanScheduler::reanchored()
  std::uint64_t promotion_checks = 0;   ///< selective's exact checks
  std::uint64_t compression_probes = 0; ///< conservative's probes
  std::uint64_t compression_moves = 0;  ///< probes that moved a job
  std::uint64_t compression_skips = 0;  ///< jobs the width bound passed
  std::uint64_t xfactor_events = 0;     ///< nobackfill-xfactor's events
  std::uint64_t head_updates = 0;       ///< its head tournament's matches

  [[nodiscard]] double reanchored_per_job() const {
    return jobs == 0 ? 0.0
                     : static_cast<double>(plan_reanchored) /
                           static_cast<double>(jobs);
  }
  /// Share of the jobs compression visited (past the hole filter) that
  /// the width bound skipped without a probe.
  [[nodiscard]] double skip_share() const {
    const std::uint64_t visited = compression_probes + compression_skips;
    return visited == 0 ? 0.0
                        : static_cast<double>(compression_skips) /
                              static_cast<double>(visited);
  }
  [[nodiscard]] double head_updates_per_event() const {
    return xfactor_events == 0 ? 0.0
                               : static_cast<double>(head_updates) /
                                     static_cast<double>(xfactor_events);
  }
};

/// Smoke limits on the work counters, fixed so they hold on any machine.
/// Head matches per event read 6.3 / 6.4 / 8.5 at 2k / 4k / 16k jobs on
/// the exact CTC trace (9.9 at 64k: a start replays one root path, whose
/// length grows with the log of the backlog), where re-ranking the whole
/// queue at every pass computed one key per queued job. The width bound
/// skips 38 / 49 / 48% of the jobs compression visits on the
/// actual-estimate twins at 2k / 4k / 16k.
constexpr double kMaxHeadUpdatesPerEvent = 10.0;
constexpr double kMinCompressionSkipShare = 0.30;

WorkCounters measure_work(const workload::Trace& trace, int procs,
                          const std::string& regime) {
  const core::SchedulerConfig config{procs, core::PriorityPolicy::Fcfs};
  WorkCounters work;
  work.regime = regime;
  work.jobs = trace.size();
  core::PlanScheduler plan{config};
  (void)core::run_simulation(trace, plan);
  work.plan_reanchored = plan.reanchored();
  core::SelectiveScheduler selective{config,
                                     core::SchedulerExtras{}.xfactor_threshold};
  (void)core::run_simulation(trace, selective);
  work.promotion_checks = selective.promotion_checks();
  core::ConservativeScheduler conservative{config};
  (void)core::run_simulation(trace, conservative);
  work.compression_probes = conservative.compression_probes();
  work.compression_moves = conservative.compression_moves();
  work.compression_skips = conservative.compression_skips();
  core::FcfsScheduler nobackfill{{procs, core::PriorityPolicy::XFactor}};
  work.xfactor_events = core::run_simulation(trace, nobackfill).events;
  work.head_updates = nobackfill.head_node_updates();
  return work;
}

/// nobackfill-xfactor at growing trace lengths: whether its events/s
/// stay flat as the backlog deepens.
struct RungPoint {
  std::size_t jobs = 0;
  double events_per_sec = 0.0;
  double head_updates_per_event = 0.0;
};

std::vector<RungPoint> measure_xfactor_rung() {
  const int procs = exp::machine_procs(exp::TraceKind::Ctc);
  std::vector<RungPoint> rung;
  for (const std::size_t jobs : {4000, 16000, 64000}) {
    const auto trace = bench_trace(exp::TraceKind::Ctc, jobs);
    RungPoint point;
    point.jobs = jobs;
    point.events_per_sec =
        measure_sim(trace, core::SchedulerKind::Fcfs,
                    core::PriorityPolicy::XFactor, procs)
            .events_per_sec;
    core::FcfsScheduler nobackfill{{procs, core::PriorityPolicy::XFactor}};
    const auto events = core::run_simulation(trace, nobackfill).events;
    point.head_updates_per_event =
        static_cast<double>(nobackfill.head_node_updates()) /
        static_cast<double>(events);
    rung.push_back(point);
  }
  return rung;
}

struct SweepPoint {
  std::size_t threads = 0;  ///< requested worker count
  double seconds = 0.0;
  double cells_per_sec = 0.0;
  double speedup = 1.0;  ///< vs the 1-thread run of the same grid
};

struct SweepStats {
  std::size_t cells = 0;
  std::vector<SweepPoint> points;
  /// Merged metrics JSON byte-identical across every thread count --
  /// the exp::Sweep determinism contract, re-checked on real hardware.
  bool deterministic = true;
};

/// Throughput of the grid-level sweep engine: a bench-shaped grid (all
/// six schedulers x 4 seeds) timed at 1, N/2 and N worker threads.
SweepStats measure_sweep(std::size_t jobs) {
  // Cells sized so the whole grid stays a few seconds of work: the
  // point is scheduling overhead and scaling, not simulator speed.
  const std::size_t cell_jobs = std::max<std::size_t>(250, jobs / 8);
  exp::Sweep sweep;
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::Conservative, core::SchedulerKind::Easy,
        core::SchedulerKind::Fcfs, core::SchedulerKind::KReservation,
        core::SchedulerKind::Selective, core::SchedulerKind::Slack}) {
    exp::Scenario base;
    base.trace = exp::TraceKind::Ctc;
    base.jobs = cell_jobs;
    base.load = exp::kHighLoad;
    base.scheduler = kind;
    base.priority = core::PriorityPolicy::Fcfs;
    (void)sweep.add_replications(base, 4, core::to_string(kind));
  }

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::vector<std::size_t> counts{1};
  if (hw / 2 > 1) counts.push_back(hw / 2);
  if (hw > counts.back()) counts.push_back(hw);

  SweepStats stats;
  stats.cells = sweep.size();
  std::string reference_json;
  double serial_seconds = 0.0;
  for (const std::size_t threads : counts) {
    exp::SweepOptions options;
    options.threads = threads;
    double best = std::numeric_limits<double>::infinity();
    std::string merged_json;
    for (int rep = 0; rep < 2; ++rep) {
      const exp::SweepReport report = sweep.run(options);
      best = std::min(best, report.seconds);
      merged_json = metrics::metrics_json(report.merged);
    }
    if (threads == 1) {
      reference_json = merged_json;
      serial_seconds = best;
    } else if (merged_json != reference_json) {
      stats.deterministic = false;
    }
    SweepPoint point;
    point.threads = threads;
    point.seconds = best;
    point.cells_per_sec = static_cast<double>(sweep.size()) / best;
    point.speedup = serial_seconds / best;
    stats.points.push_back(point);
  }
  return stats;
}

struct ReportOptions {
  bool report = false;
  bool smoke = false;
  bool audit_overhead = false;
  std::size_t jobs = 4000;
  std::string out = "BENCH_profile.json";
  std::string baseline = "bench/perf_baseline.json";
};

struct Report {
  std::size_t jobs = 0;
  std::vector<SimPoint> sims;
  double conservative_cost_factor = 0.0;
  AnchorStats anchors;
  BreakpointStats breakpoints;
  DecisionLatencyStats decision;
  ServedCodecStats served;
  std::vector<AuditOverhead> audits;
  /// Exact estimates (the report's trace) first, then actual estimates.
  std::vector<WorkCounters> work;
  std::vector<RungPoint> xfactor_rung;  ///< --profile-report only
  SweepStats sweep;
};

Report build_report(std::size_t jobs, bool rung) {
  const int procs = exp::machine_procs(exp::TraceKind::Ctc);
  const auto trace = bench_trace(exp::TraceKind::Ctc, jobs);
  Report report;
  report.jobs = jobs;
  // All seven schedulers under FCFS priority; conservative/easy/nobackfill
  // stay first so older baseline readers keep working.
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::Conservative, core::SchedulerKind::Easy,
        core::SchedulerKind::Fcfs, core::SchedulerKind::KReservation,
        core::SchedulerKind::Selective, core::SchedulerKind::Slack,
        core::SchedulerKind::Plan})
    report.sims.push_back(
        measure_sim(trace, kind, core::PriorityPolicy::Fcfs, procs));
  // Then nobackfill under XFactor: the only row whose priority drifts
  // with the clock, so the only one exercising the per-pass repair of
  // the queue order, over the deepest backlog of any scheduler.
  report.sims.push_back(measure_sim(trace, core::SchedulerKind::Fcfs,
                                    core::PriorityPolicy::XFactor, procs));
  // EASY holds at most one reservation, so its throughput is almost
  // independent of the profile hot path that conservative hammers; the
  // ratio isolates the reservation/compression cost while normalizing
  // out absolute machine speed. (Plain FCFS is no use as the reference:
  // with no backfilling it saturates at this load and its giant backlog
  // dominates its own runtime.) The same normalization yields one cost
  // factor per scheduler -- EASY events/sec over that scheduler's --
  // which the smoke guard compares against the checked-in baseline.
  report.conservative_cost_factor =
      report.sims[1].events_per_sec / report.sims[0].events_per_sec;
  report.anchors = measure_anchors(trace, procs);
  report.breakpoints = measure_breakpoints(trace, procs);
  report.decision = measure_decision_latency(trace, procs);
  report.served = measure_served_codec(trace, procs);
  // The schedulers whose audits cross-check a profile every cycle.
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::Conservative, core::SchedulerKind::Slack,
        core::SchedulerKind::Plan})
    report.audits.push_back(measure_audit_overhead({trace}, kind, procs));
  report.work.push_back(measure_work(trace, procs, "exact"));
  report.work.push_back(measure_work(
      bench_trace(exp::TraceKind::Ctc, jobs,
                  {.regime = exp::EstimateRegime::Actual}),
      procs, "actual"));
  if (rung) report.xfactor_rung = measure_xfactor_rung();
  report.sweep = measure_sweep(jobs);
  return report;
}

/// The most full timeline rebuilds any audited scheduler's replay took.
std::uint64_t max_reseeds(const Report& report) {
  std::uint64_t most = 0;
  for (const AuditOverhead& a : report.audits)
    most = std::max(most, a.reseeds);
  return most;
}

/// EASY-normalized relative cost of one measured scheduler (1.0 = as
/// fast as EASY; higher = slower). Hardware speed cancels out.
double cost_factor(const Report& report, const SimPoint& point) {
  return report.sims[1].events_per_sec / point.events_per_sec;
}

void write_json(const Report& report, const std::string& path) {
  std::ofstream out{path};
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"profile\",\n"
      << "  \"trace\": \"ctc\",\n"
      << "  \"load\": " << exp::kHighLoad << ",\n"
      << "  \"jobs\": " << report.jobs << ",\n"
      << "  \"schedulers\": [\n";
  for (std::size_t i = 0; i < report.sims.size(); ++i) {
    const SimPoint& p = report.sims[i];
    out << "    {\"scheme\": \"" << p.scheme << "\", \"events\": " << p.events
        << ", \"passes\": " << p.passes
        << ", \"passes_skipped\": " << p.passes_skipped
        << ", \"wakeups\": " << p.wakeups << ", \"seconds\": " << p.seconds
        << ", \"events_per_sec\": " << p.events_per_sec << "}"
        << (i + 1 < report.sims.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Flat per-scheduler cost and events/s keys so the smoke guard can
  // read them with the same single-number extractor as
  // conservative_cost_factor.
  for (const SimPoint& p : report.sims)
    out << "  \"cost_" << p.scheme << "\": " << cost_factor(report, p)
        << ",\n";
  for (const SimPoint& p : report.sims)
    out << "  \"eps_" << p.scheme << "\": " << p.events_per_sec << ",\n";
  out << "  \"conservative_cost_factor\": " << report.conservative_cost_factor
      << ",\n"
      << "  \"anchor\": {\"breakpoints\": " << report.anchors.breakpoints
      << ", \"ns_per_anchor\": " << report.anchors.ns_per_anchor
      << ", \"ns_per_find_and_reserve\": "
      << report.anchors.ns_per_find_and_reserve
      << ", \"ns_per_find_and_reserve_multi\": "
      << report.anchors.ns_per_find_and_reserve_multi << "},\n"
      // Flat key for the smoke guard's single-number extractor.
      << "  \"multi_axis0_ratio\": " << report.anchors.multi_axis0_ratio
      << ",\n"
      << "  \"profile_breakpoints\": {\"peak\": " << report.breakpoints.peak
      << ", \"mean\": " << report.breakpoints.mean << "},\n"
      // Flat keys so the smoke guard's single-number extractor reads
      // them like the cost_* band.
      << "  \"decision_submit_p50_ns\": " << report.decision.submit_p50_ns
      << ",\n"
      << "  \"decision_submit_p99_ns\": " << report.decision.submit_p99_ns
      << ",\n"
      << "  \"decision_finish_p50_ns\": " << report.decision.finish_p50_ns
      << ",\n"
      << "  \"decision_finish_p99_ns\": " << report.decision.finish_p99_ns
      << ",\n"
      << "  \"decision_seam_overhead\": " << report.decision.seam_overhead
      << ",\n"
      << "  \"served_codec_overhead\": " << report.served.overhead << ",\n";
  for (const AuditOverhead& a : report.audits)
    out << "  \"audit_overhead_" << a.scheme << "\": " << a.ratio << ",\n";
  // The most re-seeds any audited scheduler needed: the re-seed gate's
  // limit when this file is the smoke's baseline.
  out << "  \"audit_reseeds\": " << max_reseeds(report) << ",\n";
  for (const WorkCounters& w : report.work)
    out << "  \"work_" << w.regime << "\": {\"jobs\": " << w.jobs
        << ", \"plan_reanchored\": " << w.plan_reanchored
        << ", \"promotion_checks\": " << w.promotion_checks
        << ", \"compression_probes\": " << w.compression_probes
        << ", \"compression_moves\": " << w.compression_moves
        << ", \"compression_skips\": " << w.compression_skips
        << ", \"xfactor_events\": " << w.xfactor_events
        << ", \"head_updates\": " << w.head_updates << "},\n";
  // Flat keys for the smoke guard's single-number extractor.
  out << "  \"plan_reanchored_per_job\": "
      << report.work.front().reanchored_per_job() << ",\n";
  out << "  \"head_updates_per_event\": "
      << report.work.front().head_updates_per_event() << ",\n";
  out << "  \"compression_skip_share\": " << report.work.back().skip_share()
      << ",\n";
  if (!report.xfactor_rung.empty()) {
    out << "  \"xfactor_rung\": [";
    for (std::size_t i = 0; i < report.xfactor_rung.size(); ++i) {
      const RungPoint& p = report.xfactor_rung[i];
      out << (i ? ", " : "") << "{\"jobs\": " << p.jobs
          << ", \"events_per_sec\": " << p.events_per_sec
          << ", \"head_updates_per_event\": " << p.head_updates_per_event
          << "}";
    }
    out << "],\n";
  }
  out << "  \"sweep\": {\"cells\": " << report.sweep.cells
      << ", \"deterministic\": "
      << (report.sweep.deterministic ? "true" : "false") << ", \"points\": [";
  for (std::size_t i = 0; i < report.sweep.points.size(); ++i) {
    const SweepPoint& p = report.sweep.points[i];
    out << (i ? ", " : "") << "{\"threads\": " << p.threads
        << ", \"seconds\": " << p.seconds
        << ", \"cells_per_sec\": " << p.cells_per_sec
        << ", \"speedup\": " << p.speedup << "}";
  }
  out << "]}\n"
      << "}\n";
}

void print_report(const Report& report) {
  for (const SimPoint& p : report.sims)
    std::printf("%-22s %9.0f events/sec  (%llu events, %llu passes + %llu "
                "skipped, %llu wakeups, %.3fs)\n",
                p.scheme.c_str(), p.events_per_sec,
                static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.passes),
                static_cast<unsigned long long>(p.passes_skipped),
                static_cast<unsigned long long>(p.wakeups), p.seconds);
  std::printf("conservative cost factor: %.2fx EASY\n",
              report.conservative_cost_factor);
  std::printf("anchor search: %.1f ns (find+reserve %.1f ns) over %zu "
              "breakpoints\n",
              report.anchors.ns_per_anchor,
              report.anchors.ns_per_find_and_reserve,
              report.anchors.breakpoints);
  std::printf("multi-profile axis-0 find+reserve: %.1f ns (%.2fx the "
              "single-axis profile)\n",
              report.anchors.ns_per_find_and_reserve_multi,
              report.anchors.multi_axis0_ratio);
  std::printf("conservative run breakpoints: peak %zu, mean %.1f\n",
              report.breakpoints.peak, report.breakpoints.mean);
  std::printf("decision seam: on_submit p50 %.0f ns p99 %.0f ns, on_finish "
              "p50 %.0f ns p99 %.0f ns, overhead %.2fx bare hooks\n",
              report.decision.submit_p50_ns, report.decision.submit_p99_ns,
              report.decision.finish_p50_ns, report.decision.finish_p99_ns,
              report.decision.seam_overhead);
  std::printf("served front (conservative-fcfs, in process): %.2fx "
              "run_simulation (%.4fs vs %.4fs)\n",
              report.served.overhead, report.served.served_seconds,
              report.served.direct_seconds);
  for (const AuditOverhead& a : report.audits)
    std::printf("audit overhead %s: %.2fx bare replay (%.4fs vs %.4fs, "
                "%llu checks, %llu re-seeds)\n",
                a.scheme.c_str(), a.ratio, a.audited_seconds, a.bare_seconds,
                static_cast<unsigned long long>(a.checks),
                static_cast<unsigned long long>(a.reseeds));
  for (const WorkCounters& w : report.work)
    std::printf("work (%s estimates, %llu jobs): plan re-anchored %llu "
                "(%.2f per job), selective promotion checks %llu, "
                "conservative compression probes %llu, moves %llu, "
                "width-bound skips %llu (%.1f%% of visited), "
                "nobackfill-xfactor head matches %llu (%.2f per event)\n",
                w.regime.c_str(), static_cast<unsigned long long>(w.jobs),
                static_cast<unsigned long long>(w.plan_reanchored),
                w.reanchored_per_job(),
                static_cast<unsigned long long>(w.promotion_checks),
                static_cast<unsigned long long>(w.compression_probes),
                static_cast<unsigned long long>(w.compression_moves),
                static_cast<unsigned long long>(w.compression_skips),
                100.0 * w.skip_share(),
                static_cast<unsigned long long>(w.head_updates),
                w.head_updates_per_event());
  if (!report.xfactor_rung.empty()) {
    std::printf("nobackfill-xfactor scaling (exact estimates):");
    for (const RungPoint& p : report.xfactor_rung)
      std::printf("  %zuk %.3gM events/s (%.2f matches/event)",
                  p.jobs / 1000, p.events_per_sec / 1e6,
                  p.head_updates_per_event);
    std::printf("\n");
  }
  for (const SweepPoint& p : report.sweep.points)
    std::printf("sweep throughput (%zu cells, %zu threads): %6.1f cells/sec "
                "(%.3fs, %.2fx)\n",
                report.sweep.cells, p.threads, p.cells_per_sec, p.seconds,
                p.speedup);
  std::printf("sweep merge deterministic across thread counts: %s\n",
              report.sweep.deterministic ? "yes" : "NO");
}

/// Minimal extraction of a numeric field from a flat JSON file; good
/// enough for the baseline file this binary writes itself.
bool read_json_number(const std::string& path, const std::string& key,
                      double& value) {
  std::ifstream in{path};
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  value = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

int run_smoke(const ReportOptions& options) {
  double baseline = 0.0;
  if (!read_json_number(options.baseline, "conservative_cost_factor",
                        baseline) ||
      baseline <= 0.0) {
    std::fprintf(stderr, "perf smoke: cannot read baseline %s\n",
                 options.baseline.c_str());
    return 1;
  }
  const Report report = build_report(options.jobs, /*rung=*/false);
  print_report(report);
  bool ok = true;
  const double limit = 2.0 * baseline;
  std::printf("perf smoke: cost factor %.2f, baseline %.2f, limit %.2f -- ",
              report.conservative_cost_factor, baseline, limit);
  if (report.conservative_cost_factor > limit) {
    std::printf("FAIL\n");
    ok = false;
  } else {
    std::printf("OK\n");
  }
  for (const SimPoint& p : report.sims) {
    // The event-driven driver's whole point: on a saturated workload
    // most batches provably start nothing, so strictly fewer passes run
    // than events are delivered -- for every scheduler.
    if (p.passes + p.wakeups >= p.events) {
      std::printf("perf smoke: %s ran %llu passes for %llu events -- "
                  "pass skipping is broken -- FAIL\n",
                  p.scheme.c_str(),
                  static_cast<unsigned long long>(p.passes + p.wakeups),
                  static_cast<unsigned long long>(p.events));
      ok = false;
    }
    // Per-scheduler EASY-normalized cost against the baseline, when the
    // baseline records it (older baselines only carried conservative).
    double base_cost = 0.0;
    if (!read_json_number(options.baseline, "cost_" + p.scheme, base_cost) ||
        base_cost <= 0.0)
      continue;
    const double cost = cost_factor(report, p);
    std::printf("perf smoke: cost_%s %.3f, baseline %.3f, limit %.3f -- ",
                p.scheme.c_str(), cost, base_cost, 2.0 * base_cost);
    if (cost > 2.0 * base_cost) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // Absolute events/s against the recorded baseline, when it carries
  // the eps_* keys. The cost factors above are the sharp guard (they
  // normalize hardware out); this band exists to catch catastrophic
  // absolute regressions that scale every scheduler equally -- a slow
  // engine loop, a debug build sneaking into CI. The tolerance is wide
  // on purpose: the baseline is recorded on one machine and checked on
  // another, and shared runners add one-sided noise well past 2x.
  constexpr double kEpsTolerance = 0.35;  ///< fail below 35% of baseline
  for (const SimPoint& p : report.sims) {
    double base_eps = 0.0;
    if (!read_json_number(options.baseline, "eps_" + p.scheme, base_eps) ||
        base_eps <= 0.0)
      continue;
    const double floor = kEpsTolerance * base_eps;
    std::printf(
        "perf smoke: eps_%s %.0f events/s, baseline %.0f, floor %.0f -- ",
        p.scheme.c_str(), p.events_per_sec, base_eps, floor);
    if (p.events_per_sec < floor) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // The axis-0 no-regression band: the generalized MultiProfile on a
  // procs-only query stream, relative to the single-axis Profile on the
  // identical stream. A same-machine ratio like the cost factors, so
  // hardware normalizes out; banded at 2x the recorded baseline (when
  // the baseline carries the key).
  double base_ratio = 0.0;
  if (read_json_number(options.baseline, "multi_axis0_ratio", base_ratio) &&
      base_ratio > 0.0) {
    const double ratio_limit = 2.0 * base_ratio;
    std::printf("perf smoke: multi_axis0_ratio %.3f, baseline %.3f, "
                "limit %.3f -- ",
                report.anchors.multi_axis0_ratio, base_ratio, ratio_limit);
    if (report.anchors.multi_axis0_ratio > ratio_limit) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // The seam's own band: the decision-core bookkeeping (lifecycle
  // table, stats, skip proofs) must stay within 2x of its recorded
  // relative cost over bare scheduler hooks -- same contract as the
  // per-scheduler cost factors, and like them it normalizes hardware
  // speed out by being a same-machine ratio.
  double base_overhead = 0.0;
  if (read_json_number(options.baseline, "decision_seam_overhead",
                       base_overhead) &&
      base_overhead > 0.0) {
    const double seam_limit = 2.0 * base_overhead;
    std::printf(
        "perf smoke: decision_seam_overhead %.3f, baseline %.3f, "
        "limit %.3f -- ",
        report.decision.seam_overhead, base_overhead, seam_limit);
    if (report.decision.seam_overhead > seam_limit) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // The served front's band: served_run over a LocalChannel against
  // run_simulation of the same trace, a same-machine ratio like the
  // seam's. It covers the frame codec, the session and the replay
  // client; the socket hop is not in it.
  double base_served = 0.0;
  if (read_json_number(options.baseline, "served_codec_overhead",
                       base_served) &&
      base_served > 0.0) {
    std::printf("perf smoke: served_codec_overhead %.3f, baseline %.3f, "
                "limit %.3f -- ",
                report.served.overhead, base_served, 2.0 * base_served);
    if (report.served.overhead > 2.0 * base_served) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // The auditor's band: its cost over a bare replay of the same trace
  // must stay within 2x of the recorded ratio -- a same-machine ratio
  // like the seam's, so hardware speed cancels out. A return of the
  // history-bound profile check (36x at 2k jobs, growing with the trace)
  // trips it.
  for (const AuditOverhead& a : report.audits) {
    double base_ratio = 0.0;
    if (!read_json_number(options.baseline, "audit_overhead_" + a.scheme,
                          base_ratio) ||
        base_ratio <= 0.0)
      continue;
    std::printf("perf smoke: audit_overhead_%s %.3f, baseline %.3f, "
                "limit %.3f -- ",
                a.scheme.c_str(), a.ratio, base_ratio, 2.0 * base_ratio);
    if (a.ratio > 2.0 * base_ratio) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // A work gate, exact on any machine: with exact estimates every finish
  // is on time and FCFS arrivals sort last, so the kept plan anchors each
  // newcomer once and nothing else. Replanning more means an event
  // re-derived state it did not change.
  const WorkCounters& exact = report.work.front();
  std::printf("perf smoke: plan re-anchored %.3f jobs per submitted job "
              "(%s estimates), limit 1 -- ",
              exact.reanchored_per_job(), exact.regime.c_str());
  if (exact.reanchored_per_job() > 1.0) {
    std::printf("FAIL\n");
    ok = false;
  } else {
    std::printf("OK\n");
  }
  // A work gate, exact on any machine: the auditor keeps its expected
  // timeline between cycles and rebuilds it only when something unusual
  // happened. A clean replay of a correct scheduler needs no rebuild, so
  // the recorded count is 0 (also the limit without a baseline); any
  // more means the kept timeline went stale and the audit is paying
  // full rebuilds again.
  double recorded_reseeds = 0.0;
  (void)read_json_number(options.baseline, "audit_reseeds", recorded_reseeds);
  const auto reseed_limit = static_cast<std::uint64_t>(recorded_reseeds);
  for (const AuditOverhead& a : report.audits) {
    std::printf("perf smoke: audit of %s re-seeded its timeline %llu "
                "times, limit %llu -- ",
                a.scheme.c_str(), static_cast<unsigned long long>(a.reseeds),
                static_cast<unsigned long long>(reseed_limit));
    if (a.reseeds > reseed_limit) {
      std::printf("FAIL\n");
      ok = false;
    } else {
      std::printf("OK\n");
    }
  }
  // Work gates, exact on any machine. Without backfilling a pass needs
  // only the head of the XFactor order: the tournament plays O(log q)
  // matches per start and per crossing, where re-deriving the order
  // costs one key per queued job per pass.
  const double head_rate = exact.head_updates_per_event();
  std::printf("perf smoke: nobackfill-xfactor head matches %.3f per event "
              "(%s estimates), limit %.1f -- ",
              head_rate, exact.regime.c_str(), kMaxHeadUpdatesPerEvent);
  if (head_rate > kMaxHeadUpdatesPerEvent) {
    std::printf("FAIL\n");
    ok = false;
  } else {
    std::printf("OK\n");
  }
  // Compression skips, without a probe, every job wider than any
  // capacity freed since it was anchored; exact estimates never compress,
  // so the actual-estimate twin carries this gate.
  const WorkCounters& actual = report.work.back();
  std::printf("perf smoke: width bound skipped %.1f%% of the jobs "
              "compression visited (%s estimates), floor %.0f%% -- ",
              100.0 * actual.skip_share(), actual.regime.c_str(),
              100.0 * kMinCompressionSkipShare);
  if (actual.skip_share() < kMinCompressionSkipShare) {
    std::printf("FAIL\n");
    ok = false;
  } else {
    std::printf("OK\n");
  }
  // A correctness gate, not a throughput gate: parallel efficiency varies
  // with the CI machine, but the merged metrics must never depend on the
  // worker count.
  if (!report.sweep.deterministic) {
    std::printf("perf smoke: sweep merged metrics differ across thread "
                "counts -- FAIL\n");
    ok = false;
  }
  return ok ? 0 : 1;
}

int run_audit_overhead(const ReportOptions& options) {
  // Several CTC traces, each from its own seed, so that one trace's
  // queue dynamics do not decide the figure.
  constexpr std::uint64_t kTraces = 3;
  std::vector<workload::Trace> traces;
  for (std::uint64_t seed = 1; seed <= kTraces; ++seed) {
    exp::Scenario scenario;
    scenario.trace = exp::TraceKind::Ctc;
    scenario.jobs = options.jobs;
    scenario.load = exp::kHighLoad;
    scenario.seed = seed;
    traces.push_back(exp::build_workload(scenario));
  }
  const int procs = exp::machine_procs(exp::TraceKind::Ctc);
  for (const core::SchedulerKind kind :
       {core::SchedulerKind::Conservative, core::SchedulerKind::Slack,
        core::SchedulerKind::Plan}) {
    const AuditOverhead a = measure_audit_overhead(traces, kind, procs);
    std::printf("{\"jobs\": %zu, \"traces\": %llu, \"scheme\": \"%s\", "
                "\"bare_s\": %.6g, \"audited_s\": %.6g, \"ratio\": %.4g, "
                "\"checks\": %llu, \"reseeds\": %llu}\n",
                options.jobs, static_cast<unsigned long long>(kTraces),
                a.scheme.c_str(), a.bare_seconds, a.audited_seconds, a.ratio,
                static_cast<unsigned long long>(a.checks),
                static_cast<unsigned long long>(a.reseeds));
    std::fflush(stdout);
  }
  return 0;
}

int run_report_mode(const ReportOptions& options) {
  const Report report = build_report(options.jobs, /*rung=*/true);
  print_report(report);
  write_json(report, options.out);
  std::printf("wrote %s\n", options.out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ReportOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--profile-report") {
      options.report = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--audit-overhead") {
      options.audit_overhead = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      options.jobs = static_cast<std::size_t>(std::strtoull(argv[++i],
                                                            nullptr, 10));
    } else if (arg == "--out" && i + 1 < argc) {
      options.out = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      options.baseline = argv[++i];
    } else if (options.report || options.smoke || options.audit_overhead) {
      std::fprintf(stderr, "unknown report option: %s\n", arg.c_str());
      return 1;
    }
  }
  if (options.smoke || options.report || options.audit_overhead) {
    if (options.jobs == 0) {
      std::fprintf(stderr, "--jobs must be a positive integer\n");
      return 1;
    }
    if (options.audit_overhead) return run_audit_overhead(options);
    return options.smoke ? run_smoke(options) : run_report_mode(options);
  }

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
