// perfbench -- shared plumbing for the benchmark's workloads.
//
// A workload run fills one Report: attempted/failed operation counts
// (every output check is an operation too) and named metrics with their
// units. main.cpp prints the report as the benchmark's JSON result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "core/simulation.hpp"
#include "core/types.hpp"
#include "workload/job.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where scratch files and spans go
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Count one attempted operation; a false `ok` also counts it failed
  /// and keeps `what` for the diagnostic printed to stderr.
  void check(bool ok, const std::string& what);
  /// Count `attempted` operations of which `failed` failed at once.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> metrics_;
};

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Set-ups per run: setup_s is the median of this many.
inline constexpr int kSetups = 21;

/// Run `setup` `times` times and return the median duration: the
/// benchmark reports set-up time as a median so that one slow start
/// does not decide the figure.
template <typename Fn>
[[nodiscard]] double timed_setup(int times, Fn&& setup) {
  std::vector<double> durations;
  for (int i = 0; i < times; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    durations.push_back(seconds_since(start));
  }
  return median(std::move(durations));
}

/// What fastest_times measured.
struct Fastest {
  std::vector<double> seconds;  ///< each unit's fastest time; empty on failure
  std::size_t rounds = 0;
};

/// Time `items` units of work round-robin until `seconds` are spent
/// (every unit the same number of times, at least once) and return each
/// unit's fastest time. `sample(i)` does unit i once and returns its
/// duration in seconds, or a negative value on failure, which ends the
/// sampling with no times.
///
/// Other tenants of a shared host slow this program by up to half, in
/// stretches from under a second to minutes, and never make it faster.
/// Short units, sampled many times over the whole run, let each unit's
/// fastest sample land in a quiet stretch, so it estimates the program's
/// own cost.
template <typename Fn>
[[nodiscard]] Fastest fastest_times(std::size_t items, double seconds,
                                    Fn&& sample) {
  Fastest out;
  out.seconds.assign(items, 0.0);
  const Clock::time_point start = Clock::now();
  for (; out.rounds == 0 || seconds_since(start) < seconds; ++out.rounds) {
    for (std::size_t i = 0; i < items; ++i) {
      const double duration = sample(i);
      if (duration < 0.0) return {};
      if (out.rounds == 0 || duration < out.seconds[i])
        out.seconds[i] = duration;
    }
  }
  return out;
}

/// The seven schedulers under the names the metrics use.
inline constexpr bfsim::core::SchedulerKind kAllKinds[] = {
    bfsim::core::SchedulerKind::Fcfs,
    bfsim::core::SchedulerKind::Easy,
    bfsim::core::SchedulerKind::Conservative,
    bfsim::core::SchedulerKind::KReservation,
    bfsim::core::SchedulerKind::Selective,
    bfsim::core::SchedulerKind::Slack,
    bfsim::core::SchedulerKind::Plan,
};

/// Schedulers whose audit_profile() exposes a live availability profile.
[[nodiscard]] bool has_profile(bfsim::core::SchedulerKind kind);

/// Byte-level schedule equality: every outcome field of every job plus
/// the run's counters (the check bfsim_replay --verify makes).
[[nodiscard]] bool identical(const bfsim::core::SimulationResult& a,
                             const bfsim::core::SimulationResult& b);

/// A CTC-shaped high-load trace of `jobs` jobs built by the experiment
/// layer from `seed` (exact estimates).
[[nodiscard]] bfsim::workload::Trace ctc_trace(std::size_t jobs,
                                               std::uint64_t seed);

// Workload entry points; each fills `report` with the end-to-end
// metrics (args.trace == false) or the per-layer metrics (true).
void run_paper_grid(const Args& args, Report& report);
void run_trace_ladder(const Args& args, Report& report);
void run_audited_ladder(const Args& args, Report& report);
void run_served_replay(const Args& args, Report& report);

}  // namespace perfbench
