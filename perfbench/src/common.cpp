#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

#include "core/simulation.hpp"
#include "exp/scenario.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Report::count(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) failures_.push_back(what);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool has_profile(bfsim::core::SchedulerKind kind) {
  using bfsim::core::SchedulerKind;
  return kind == SchedulerKind::Conservative || kind == SchedulerKind::Slack ||
         kind == SchedulerKind::Plan;
}

bool identical(const bfsim::core::SimulationResult& a,
               const bfsim::core::SimulationResult& b) {
  if (a.outcomes.size() != b.outcomes.size() || a.makespan != b.makespan ||
      a.events != b.events || a.passes != b.passes ||
      a.passes_skipped != b.passes_skipped || a.wakeups != b.wakeups ||
      a.max_queue != b.max_queue || a.outages != b.outages ||
      a.repairs != b.repairs || a.kills != b.kills ||
      a.scheduler_name != b.scheduler_name)
    return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const bfsim::core::JobOutcome& x = a.outcomes[i];
    const bfsim::core::JobOutcome& y = b.outcomes[i];
    if (x.start != y.start || x.end != y.end || x.killed != y.killed ||
        x.cancelled != y.cancelled || x.requeues != y.requeues ||
        x.first_start != y.first_start || x.requeue_wait != y.requeue_wait)
      return false;
  }
  return true;
}

bfsim::workload::Trace ctc_trace(std::size_t jobs, std::uint64_t seed) {
  bfsim::exp::Scenario scenario;
  scenario.trace = bfsim::exp::TraceKind::Ctc;
  scenario.jobs = jobs;
  scenario.load = bfsim::exp::kHighLoad;
  scenario.seed = seed;
  return bfsim::exp::build_workload(scenario);
}

}  // namespace perfbench
