// bfsim -- priority-order scheduling without backfilling.
//
// The paper's baseline: jobs start strictly in queue (priority) order;
// the head of the queue blocks everything behind it until enough
// processors free up. With the FCFS priority policy this is the classic
// First-Come First-Served scheduler whose poor utilization motivated
// backfilling in the first place.
#pragma once

#include <cstdint>

#include "core/scheduler.hpp"
#include "core/xfactor_head.hpp"

namespace bfsim::core {

class FcfsScheduler final : public SchedulerBase {
 public:
  explicit FcfsScheduler(SchedulerConfig config);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool node_down(const sim::Outage& outage, Time now) override;
  bool node_up(const sim::Outage& outage, Time now) override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t queued_count() const override {
    return queue_.size() + head_.size();  // one of them is always empty
  }

  /// Matches the XFactor head's tournament played so far (a
  /// deterministic work counter; 0 under the static priorities).
  [[nodiscard]] std::uint64_t head_node_updates() const {
    return head_.node_updates();
  }

 private:
  /// Under XFactor the waiting jobs live here instead of in queue_:
  /// without backfilling a pass needs only the head of the order.
  XFactorHead head_;

  [[nodiscard]] bool waiting() const { return queued_count() > 0; }
};

}  // namespace bfsim::core
