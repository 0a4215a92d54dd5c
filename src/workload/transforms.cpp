#include "workload/transforms.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bfsim::workload {

void finalize(Trace& trace) {
  const auto by_submit = [](const Job& a, const Job& b) {
    return a.submit < b.submit;
  };
  // Most callers hand over a trace already in submit order, which a
  // stable sort would leave as is after allocating a trace-sized buffer.
  if (!std::is_sorted(trace.begin(), trace.end(), by_submit))
    std::stable_sort(trace.begin(), trace.end(), by_submit);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i].id = static_cast<JobId>(i);
}

void rebase(Trace& trace) {
  if (trace.empty()) return;
  sim::Time first = trace.front().submit;
  for (const Job& job : trace) first = std::min(first, job.submit);
  for (Job& job : trace) job.submit = sim::saturating_sub(job.submit, first);
}

void scale_interarrival(Trace& trace, double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("scale_interarrival: factor must be > 0");
  if (trace.size() < 2) return;
  finalize(trace);
  const sim::Time base = trace.front().submit;
  double carried = static_cast<double>(base);
  sim::Time prev_original = base;
  for (Job& job : trace) {
    const auto gap =
        static_cast<double>(sim::saturating_sub(job.submit, prev_original));
    prev_original = job.submit;
    carried += gap * factor;
    job.submit = static_cast<sim::Time>(std::llround(carried));
  }
  finalize(trace);
}

double offered_load(const Trace& trace, int procs) {
  if (trace.size() < 2 || procs <= 0) return 0.0;
  sim::Time first = trace.front().submit;
  sim::Time last = trace.front().submit;
  double work = 0.0;
  for (const Job& job : trace) {
    first = std::min(first, job.submit);
    last = std::max(last, job.submit);
    work += static_cast<double>(job.work());
  }
  const auto span = static_cast<double>(sim::saturating_sub(last, first));
  if (span <= 0.0) return 0.0;
  return work / (static_cast<double>(procs) * span);
}

void set_offered_load(Trace& trace, int procs, double rho) {
  if (!(rho > 0.0))
    throw std::invalid_argument("set_offered_load: rho must be > 0");
  const double current = offered_load(trace, procs);
  if (current <= 0.0) return;
  scale_interarrival(trace, current / rho);
}

void truncate(Trace& trace, std::size_t count) {
  finalize(trace);
  if (trace.size() > count) trace.resize(count);
}

void apply_cancellations(Trace& trace, double fraction, double patience,
                         sim::Rng& rng) {
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument(
        "apply_cancellations: fraction must be in [0, 1]");
  if (!(patience > 0.0))
    throw std::invalid_argument(
        "apply_cancellations: patience must be > 0");
  for (Job& job : trace) {
    if (!rng.bernoulli(fraction)) continue;
    const auto wait_budget = static_cast<sim::Time>(
        std::llround(patience * static_cast<double>(job.estimate)));
    job.cancel_at =
        sim::saturating_add(job.submit, std::max<sim::Time>(wait_budget, 1));
  }
}

TraceStats compute_stats(const Trace& trace, int procs,
                         const CategoryThresholds& t) {
  TraceStats s;
  s.jobs = trace.size();
  if (trace.empty()) return s;
  sim::Time first = trace.front().submit;
  sim::Time last = trace.front().submit;
  double runtime_sum = 0.0, procs_sum = 0.0, over_sum = 0.0;
  for (const Job& job : trace) {
    first = std::min(first, job.submit);
    last = std::max(last, job.submit);
    runtime_sum += static_cast<double>(job.runtime);
    procs_sum += static_cast<double>(job.procs);
    over_sum += static_cast<double>(job.estimate) /
                static_cast<double>(std::max<sim::Time>(job.runtime, 1));
  }
  const auto n = static_cast<double>(trace.size());
  s.span = sim::saturating_sub(last, first);
  s.mean_runtime = runtime_sum / n;
  s.mean_procs = procs_sum / n;
  s.mean_interarrival =
      trace.size() > 1 ? static_cast<double>(s.span) / (n - 1.0) : 0.0;
  s.offered_load = offered_load(trace, procs);
  s.mean_overestimate = over_sum / n;
  s.mix = category_mix(trace, t);
  return s;
}

}  // namespace bfsim::workload
