// bfsim -- plan-based backfilling (Kopanski & Rzadca, arXiv:2109.00082 /
// 2111.10200): every queued job holds a planned start, and the plan is
// the greedy list schedule of the whole queue in current priority order
// -- each job at its earliest anchor around the running jobs, the
// outages and the jobs planned before it. Unlike conservative
// backfilling, which pins each guarantee at arrival and only ever moves
// it earlier, the plan follows the priority order: a late arrival that
// outranks a queued job may push that job's start later.
//
// The plan is kept between events instead of being recomputed at every
// pass, and an event replans only what it can have changed:
//  * a submit or cancel at priority position p re-anchors positions
//    >= p (greedy list scheduling is prefix-invariant: a job's anchor
//    depends only on the jobs planned before it);
//  * under XFactor, every hook first repairs the queue order and
//    re-anchors from the first position the repair moved (a planned
//    start always coincides with an event, so every pass follows a
//    hook that repaired the order at its instant);
//  * an early finish frees capacity anyone may move into, so the whole
//    queue is replanned from a copy of the live running profile;
//  * an on-time finish frees nothing from `now` on and changes nothing.
// The result is, at every pass, exactly the plan KReservationScheduler
// at kUnboundedReservationDepth rebuilds from scratch (DESIGN.md section
// 14.2 has the proof; a differential test compares them on random
// traces). Starts, the due-heap wake-ups, the kill hook and the profile
// and planned starts reported to the auditor are ConservativeScheduler's.
#pragma once

#include <cstdint>

#include "core/conservative_scheduler.hpp"

namespace bfsim::core {

class PlanScheduler final : public ConservativeScheduler {
 public:
  explicit PlanScheduler(SchedulerConfig config);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool node_down(const sim::Outage& outage, Time now) override;
  bool node_up(const sim::Outage& outage, Time now) override;
  [[nodiscard]] std::string name() const override;

  // Auditor introspection: as conservative, except that a replan may
  // legally move a planned start later, so guarantees are not monotone.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }

  /// Anchor searches run so far, one per job per (re)plan: the
  /// deterministic measure of how much of the queue events replan.
  [[nodiscard]] std::uint64_t reanchored() const { return reanchored_; }

 private:
  std::uint64_t reanchored_ = 0;

  /// Replan priority positions >= `first` (queue_ in priority order at
  /// `now`): release their rectangles and re-anchor them in order.
  void replan_from(std::size_t first, Time now);
  /// Replan the whole queue from a copy of the live running profile.
  void replan_all(Time now);
  /// Anchor positions >= `first` into profile_, recording each start.
  /// With `reseeded` the due heap was cleared and every anchor is pushed;
  /// otherwise only anchors that moved are (an unmoved one's entry is
  /// still valid).
  void anchor_from(std::size_t first, Time now, bool reseeded);
  /// XFactor order repair at `now`: re-anchor from the first position
  /// the repair moved. A no-op under static priority policies.
  void repair_order(Time now);
};

}  // namespace bfsim::core
