// bfsim -- reservation-depth backfilling (extension).
//
// A Maui-style generalization that spans the paper's two schemes: the top
// K jobs of the priority queue hold reservations; everything behind them
// may backfill as long as it does not disturb those K guarantees.
//   K = 0  -> pure no-guarantee backfilling (greedy first-fit by priority)
//   K = 1  -> EASY / aggressive backfilling
//   K = oo -> the list-scheduling replan of Kopanski & Rzadca
//             (arXiv:2109.00082 / 2111.10200), every queued job
//             re-anchored in priority order at every pass. The plan
//             scheduler (core/plan_scheduler.hpp) keeps that plan between
//             events instead; this stateless form is its test oracle
// Unlike conservative backfilling, which pins each guarantee at arrival
// and only ever moves it earlier, the reservation set is recomputed from
// the current priority order at every scheduling pass (repairs
// included), so under time-varying priorities (XFactor) a guarantee
// holder can change and a reservation can move later; the ablation bench
// uses this to show how worst-case turnaround shrinks and mean slowdown
// grows as K increases (the paper's Section 6 discussion).
#pragma once

#include <limits>

#include "core/scheduler.hpp"

namespace bfsim::core {

/// Reservation depth that protects every queued job: the stateless form
/// of the plan scheduler.
inline constexpr int kUnboundedReservationDepth =
    std::numeric_limits<int>::max();

class KReservationScheduler final : public SchedulerBase {
 public:
  KReservationScheduler(SchedulerConfig config, int depth);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int depth() const { return depth_; }

 private:
  int depth_;
  /// Pass-time working buffers, reused so select_starts does not
  /// allocate them per pass: the pass's profile and its starts.
  MultiProfile profile_;
  std::vector<JobId> start_scratch_;
};

}  // namespace bfsim::core
