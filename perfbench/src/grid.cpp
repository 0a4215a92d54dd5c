// perfbench -- the paper_grid workload.
//
// The union of the eight paper binaries' cells: {ctc, sdsc} x {exact,
// R=2, R=4, actual} x {nobackfill, easy, conservative} x {fcfs, sjf,
// xfactor} -- 72 scheme cells -- times kSeeds replications at kJobs jobs
// and load 0.88, run by exp::Sweep on all but one hardware thread. This is
// what experimenters run, and the only workload in which the workload,
// metrics and exp layers do real work. The untraced run sweeps the grid
// in parts -- each base trace (a trace kind and a replication) under two
// of the four regimes, 18 cells -- so a sweep lasts about 0.15 s; the
// traced run sweeps the whole grid.
//
// Every cell runs through a custom exp::CellRunner that calls the same
// three functions as the sweep's default runner (build_workload,
// run_simulation, compute_metrics) and reports its timings and work
// counters in CellResult::values; the traced variant also times the
// build and metrics calls and validates each schedule.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/simulation.hpp"
#include "core/validator.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "metrics/aggregate.hpp"
#include "metrics/report.hpp"

namespace perfbench {
namespace {

namespace core = bfsim::core;
namespace exp = bfsim::exp;

/// Jobs per cell and replications per scheme cell. The paper binaries
/// default to 10k jobs and 5 replications; 5k jobs and 3 replications
/// keep a sweep of the whole grid near 2 s on 3 workers, so that a run
/// repeats every cell more than a dozen times.
constexpr std::size_t kJobs = 5000;
constexpr std::size_t kSeeds = 3;

struct Regime {
  const char* name;
  exp::EstimateSpec spec;
};
const Regime kRegimes[] = {
    {"exact", {exp::EstimateRegime::Exact, 1.0}},
    {"r2", {exp::EstimateRegime::Systematic, 2.0}},
    {"r4", {exp::EstimateRegime::Systematic, 4.0}},
    {"actual", {exp::EstimateRegime::Actual, 1.0}},
};
constexpr core::SchedulerKind kGridKinds[] = {
    core::SchedulerKind::Fcfs, core::SchedulerKind::Easy,
    core::SchedulerKind::Conservative};
constexpr core::PriorityPolicy kPriorities[] = {core::PriorityPolicy::Fcfs,
                                                core::PriorityPolicy::Sjf,
                                                core::PriorityPolicy::XFactor};
constexpr std::size_t kSchemes = std::size(kGridKinds) * std::size(kPriorities);

/// CellResult::values layout.
enum Value : std::size_t {
  kSimS, kEvents, kPasses, kSkipped, kWakeups,  // every runner
  kBuildS, kMetricsS, kCellS, kValid,            // traced runner only
};

/// Where a cell sits in the grid, recovered from its declaration index.
struct CellPos {
  std::size_t scheme;  ///< kind-major index into kGridKinds x kPriorities
  std::size_t regime;
};

std::string scheme_name(std::size_t scheme) {
  const auto kind = kGridKinds[scheme / std::size(kPriorities)];
  const auto priority = kPriorities[scheme % std::size(kPriorities)];
  return core::to_string(kind) + "-" + core::to_string(priority);
}

core::SchedulerConfig cell_config(const exp::Scenario& scenario) {
  core::SchedulerConfig config;
  config.procs = scenario.procs();
  config.priority = scenario.priority;
  return config;
}

/// The cell runner: build_workload, run_simulation and compute_metrics,
/// with the replay timed. A traced cell also times the other two calls
/// and the whole cell, and validates the schedule outside the timings.
void run_cell(const exp::Scenario& scenario,
              const core::SimulationOptions& options, exp::CellResult& result,
              bool traced) {
  const Clock::time_point cell_start = Clock::now();
  const core::Trace trace = exp::build_workload(scenario);
  const double build_s = seconds_since(cell_start);
  const core::SchedulerConfig config = cell_config(scenario);
  Clock::time_point start = Clock::now();
  const core::SimulationResult sim = core::run_simulation(
      trace, scenario.scheduler, config, scenario.extras, options);
  const double sim_s = seconds_since(start);
  start = Clock::now();
  result.metrics = bfsim::metrics::compute_metrics(
      sim, config.procs, exp::experiment_metrics_options(trace.size()));
  const double metrics_s = seconds_since(start);
  const double cell_s = seconds_since(cell_start);
  result.values = {sim_s, static_cast<double>(sim.events),
                   static_cast<double>(sim.passes),
                   static_cast<double>(sim.passes_skipped),
                   static_cast<double>(sim.wakeups)};
  if (!traced) return;
  const bool valid =
      core::validate_schedule(trace, sim.outcomes, config.procs).ok();
  result.values.insert(result.values.end(),
                       {build_s, metrics_s, cell_s, valid ? 1.0 : 0.0});
}

void plain_cell(const exp::Scenario& scenario,
                const core::SimulationOptions& options,
                exp::CellResult& result) {
  run_cell(scenario, options, result, false);
}

void traced_cell(const exp::Scenario& scenario,
                 const core::SimulationOptions& options,
                 exp::CellResult& result) {
  run_cell(scenario, options, result, true);
}

/// Cells of one base trace -- a trace kind and a replication, whose
/// workload every regime and scheme of that trace replays -- under the
/// regimes [first_regime, last_regime).
struct Part {
  exp::TraceKind trace;
  std::size_t replication;
  std::size_t first_regime = 0;
  std::size_t last_regime = std::size(kRegimes);
};

/// Every base trace of the grid under every regime.
std::vector<Part> whole_grid() {
  std::vector<Part> parts;
  for (const exp::TraceKind trace : {exp::TraceKind::Ctc, exp::TraceKind::Sdsc})
    for (std::size_t i = 0; i < kSeeds; ++i) parts.push_back({trace, i});
  return parts;
}

/// The cells of some parts, declared part by part, then regime, then
/// scheme, so a cell's index names it.
class Grid {
 public:
  Grid(std::uint64_t seed, const exp::CellRunner& runner,
       const std::vector<Part>& parts) {
    for (const Part& part : parts)
      for (std::size_t r = part.first_regime; r < part.last_regime; ++r)
        for (std::size_t s = 0; s < kSchemes; ++s) {
          exp::Scenario scenario;
          scenario.trace = part.trace;
          scenario.jobs = kJobs;
          scenario.load = exp::kHighLoad;
          scenario.estimates = kRegimes[r].spec;
          scenario.scheduler = kGridKinds[s / std::size(kPriorities)];
          scenario.priority = kPriorities[s % std::size(kPriorities)];
          scenario.seed = seed * 1000 + 1 + part.replication;
          if (runner)
            sweep_.add(scenario, "", runner);
          else
            sweep_.add(scenario);
          pos_.push_back({s, r});
        }
  }

  [[nodiscard]] const exp::Sweep& sweep() const { return sweep_; }
  [[nodiscard]] const CellPos& pos(std::size_t cell) const {
    return pos_[cell];
  }

 private:
  exp::Sweep sweep_;
  std::vector<CellPos> pos_;
};

struct GridRun {
  exp::SweepReport report;
  double wall_s = 0.0;
  bool ok = false;
};

GridRun run_grid(const Grid& grid, std::size_t threads, Report& report) {
  GridRun run;
  exp::SweepOptions options;
  options.threads = threads;
  try {
    const Clock::time_point start = Clock::now();
    run.report = grid.sweep().run(options);
    run.wall_s = seconds_since(start);
    run.ok = run.report.failures.empty() &&
             run.report.cells.size() == grid.sweep().size();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: paper_grid: %s\n", error.what());
  }
  report.count(grid.sweep().size(), run.ok ? 0 : grid.sweep().size(),
               "paper_grid cells");
  return run;
}

bool same_counters(const GridRun& a, const GridRun& b) {
  if (!a.ok || !b.ok) return false;
  for (std::size_t c = 0; c < a.report.cells.size(); ++c)
    for (std::size_t v = kEvents; v <= kWakeups; ++v)
      if (a.report.cells[c].values[v] != b.report.cells[c].values[v])
        return false;
  return true;
}

/// Paper section 4.1: with exact estimates conservative backfilling
/// never compresses, so its schedule is the same under every priority.
bool conservative_exact_priority_free(const Grid& grid, const GridRun& run) {
  if (!run.ok) return false;
  const std::size_t conservative = 2 * std::size(kPriorities);
  for (std::size_t c = 0; c < run.report.cells.size(); ++c) {
    const CellPos& pos = grid.pos(c);
    if (pos.regime != 0 || pos.scheme != conservative) continue;
    const std::string fcfs =
        bfsim::metrics::metrics_json(run.report.cells[c].metrics);
    for (std::size_t p = 1; p < std::size(kPriorities); ++p)
      if (bfsim::metrics::metrics_json(
              run.report.cells[c + p].metrics) != fcfs)
        return false;
  }
  return true;
}

/// Each cell's run_simulation time in `run`.
std::vector<double> sim_seconds(const GridRun& run) {
  std::vector<double> seconds;
  for (const exp::CellResult& cell : run.report.cells)
    seconds.push_back(cell.values[kSimS]);
  return seconds;
}

/// Add each grid scheduler's events in `run` and the sum of its cells'
/// run_simulation times `sim_s` to `events` and `seconds`.
void add_kind_work(const Grid& grid, const GridRun& run,
                   const std::vector<double>& sim_s,
                   std::vector<double>& events, std::vector<double>& seconds) {
  for (std::size_t c = 0; c < run.report.cells.size(); ++c) {
    const std::size_t kind = grid.pos(c).scheme / std::size(kPriorities);
    events[kind] += run.report.cells[c].values[kEvents];
    seconds[kind] += sim_s[c];
  }
}

/// Replay throughput of each grid scheduler from add_kind_work's sums.
std::vector<double> kind_eps(const std::vector<double>& events,
                             const std::vector<double>& seconds) {
  std::vector<double> eps;
  for (std::size_t k = 0; k < events.size(); ++k)
    eps.push_back(events[k] / seconds[k]);
  return eps;
}

std::string merged_json(const GridRun& run) {
  return run.ok ? bfsim::metrics::metrics_json(run.report.merged) : "";
}

}  // namespace

void run_paper_grid(const Args& args, Report& report) {
  // One hardware thread is left to the system: on the 4-vCPU reference
  // VM, grid repetitions on 3 workers moved by half as much as on 4.
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t threads = hardware > 1 ? hardware - 1 : 1;
  // Set-up: declare the grid as one sweep per base trace and pair of
  // regimes, and build each sweep's workloads, which warms the
  // generators and the allocator before timing.
  std::vector<Grid> parts;
  const double setup_s = timed_setup(kSetups, [&] {
    parts.clear();
    for (const Part& base : whole_grid())
      for (std::size_t r = 0; r < std::size(kRegimes); r += 2) {
        parts.emplace_back(args.seed, plain_cell,
                           std::vector<Part>{{base.trace, base.replication, r,
                                              r + 2}});
        for (std::size_t c = 0; c < parts.back().sweep().size();
             c += kSchemes)
          (void)exp::build_workload(parts.back().sweep().scenario(c));
      }
  });

  if (!args.trace) {
    // Each part's sweep (18 cells on `threads` workers, about 0.15 s) is
    // one unit of fastest_times: wall_s sums their fastest sweeps, and
    // eps_geomean takes each cell's fastest replay over the run. Every
    // repetition must repeat the first one's work counters and merged
    // metrics; only the first is kept whole.
    std::vector<GridRun> first(parts.size());
    std::vector<std::vector<double>> fastest_sim(parts.size());
    const Fastest fastest =
        fastest_times(parts.size(), args.seconds, [&](std::size_t p) {
          const GridRun run = run_grid(parts[p], threads, report);
          if (!run.ok) return -1.0;
          if (fastest_sim[p].empty()) {
            report.check(conservative_exact_priority_free(parts[p], run),
                         "conservative with exact estimates is "
                         "priority-free");
            first[p] = run;
            fastest_sim[p] = sim_seconds(run);
          }
          report.check(same_counters(run, first[p]),
                       "paper_grid work counters repeat across repetitions");
          report.check(merged_json(run) == merged_json(first[p]),
                       "paper_grid merged metrics repeat across "
                       "repetitions");
          const std::vector<double> sim_s = sim_seconds(run);
          for (std::size_t c = 0; c < sim_s.size(); ++c)
            fastest_sim[p][c] = std::min(fastest_sim[p][c], sim_s[c]);
          return run.wall_s;
        });
    if (fastest.seconds.empty()) return;
    std::vector<double> events(std::size(kGridKinds), 0.0);
    std::vector<double> seconds(std::size(kGridKinds), 0.0);
    double wall_s = 0.0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      add_kind_work(parts[p], first[p], fastest_sim[p], events, seconds);
      wall_s += fastest.seconds[p];
    }
    std::fprintf(stderr,
                 "  %zu sweeps of %zu cells on %zu workers, %zu rounds\n",
                 parts.size(), parts.front().sweep().size(), threads,
                 fastest.rounds);
    report.set("setup_s", setup_s, "s");
    report.set("wall_s", wall_s, "s");
    report.set("eps_geomean", geomean(kind_eps(events, seconds)), "events/s");
    return;
  }

  // Traced run: the sweep's own default runner is the reference for the
  // merged metrics; the plain runner at two worker counts and the traced
  // runner must reproduce them and each other's work counters.
  const Grid reference_grid{args.seed, nullptr, whole_grid()};
  const Grid plain_grid{args.seed, plain_cell, whole_grid()};
  const Grid traced_grid{args.seed, traced_cell, whole_grid()};
  const GridRun reference = run_grid(reference_grid, threads, report);
  const GridRun untraced = run_grid(plain_grid, threads, report);
  const GridRun traced = run_grid(traced_grid, threads, report);
  const std::size_t other_threads = threads > 1 ? threads / 2 : 2;
  const GridRun resharded = run_grid(plain_grid, other_threads, report);

  const std::string expected = merged_json(reference);
  report.check(!expected.empty() && merged_json(untraced) == expected,
               "untraced merged metrics equal the default runner's");
  report.check(merged_json(traced) == expected,
               "traced merged metrics equal the untraced run's");
  report.check(merged_json(resharded) == expected,
               "merged metrics equal across sweep worker counts");
  report.check(same_counters(traced, untraced),
               "work counters equal between traced and untraced runs");
  report.check(same_counters(resharded, untraced),
               "work counters equal across sweep worker counts");
  report.check(conservative_exact_priority_free(traced_grid, traced),
               "conservative with exact estimates is priority-free");
  if (!traced.ok) return;

  double build_s = 0.0, metrics_s = 0.0, cell_sum = 0.0, longest = 0.0;
  double events = 0.0, passes = 0.0, skipped = 0.0;
  std::vector<double> scheme_s(kSchemes, 0.0);
  std::vector<double> regime_s(std::size(kRegimes), 0.0);
  std::size_t invalid = 0;
  std::FILE* spans =
      std::fopen((args.out_dir + "/spans-paper_grid.jsonl").c_str(), "a");
  for (std::size_t c = 0; c < traced.report.cells.size(); ++c) {
    const std::vector<double>& values = traced.report.cells[c].values;
    const CellPos& pos = traced_grid.pos(c);
    build_s += values[kBuildS];
    metrics_s += values[kMetricsS];
    cell_sum += values[kCellS];
    longest = std::max(longest, values[kCellS]);
    events += values[kEvents];
    passes += values[kPasses];
    skipped += values[kSkipped];
    scheme_s[pos.scheme] += values[kSimS];
    regime_s[pos.regime] += values[kSimS];
    if (values[kValid] != 1.0) ++invalid;
    if (spans != nullptr)
      std::fprintf(spans,
                   "{\"scope\":\"%s\",\"cell_s\":%.9g,"
                   "\"exp.build_workload\":%.9g,\"core.run_simulation\":%.9g,"
                   "\"metrics.compute_metrics\":%.9g}\n",
                   traced.report.cells[c].label.c_str(), values[kCellS],
                   values[kBuildS], values[kSimS], values[kMetricsS]);
  }
  if (spans != nullptr) std::fclose(spans);
  report.count(traced.report.cells.size(), invalid,
               "traced paper_grid schedules pass validate_schedule");

  report.set("workload.build_s", build_s, "s");
  for (std::size_t s = 0; s < kSchemes; ++s)
    report.set("core.sim_s." + scheme_name(s), scheme_s[s], "s");
  for (std::size_t r = 0; r < std::size(kRegimes); ++r)
    report.set(std::string("core.sim_s.") + kRegimes[r].name, regime_s[r], "s");
  std::vector<double> kind_events(std::size(kGridKinds), 0.0);
  std::vector<double> kind_seconds(std::size(kGridKinds), 0.0);
  add_kind_work(traced_grid, traced, sim_seconds(traced), kind_events,
                kind_seconds);
  const std::vector<double> eps = kind_eps(kind_events, kind_seconds);
  for (std::size_t k = 0; k < std::size(kGridKinds); ++k)
    report.set("eps." + core::to_string(kGridKinds[k]), eps[k], "events/s");
  report.set("metrics.compute_s", metrics_s, "s");
  report.set("exp.busy_frac",
             cell_sum / (static_cast<double>(traced.report.threads_used) *
                         traced.wall_s),
             "ratio");
  report.set("exp.longest_cell_s", longest, "s");
  report.set("core.events", events, "count");
  report.set("core.passes", passes, "count");
  report.set("core.passes_skipped", skipped, "count");
  report.set("trace_overhead", traced.wall_s / untraced.wall_s, "ratio");
}

}  // namespace perfbench
