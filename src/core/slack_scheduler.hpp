// bfsim -- slack-based backfilling (extension).
//
// A tractable variant of Talby & Feitelson's slack-based backfilling
// (IPPS 1999, the paper's citation [13]), which generalizes both of the
// paper's schemes: every queued job holds a reservation *and* a slack
// budget. A new arrival may start immediately even when that displaces
// existing reservations, provided every displaced job still starts by
//
//     deadline = conservative guarantee at arrival + slack_factor x estimate.
//
// A large slack_factor approaches aggressive backfilling (anybody may be
// pushed) while still bounding starvation -- the knob trades the paper's
// mean-slowdown / worst-case-turnaround axes. slack_factor = 0 equals
// conservative backfilling only under exact estimates: deadlines stay
// fixed at arrival while compression after an early completion moves
// reservations earlier, and the gap that opens between a reservation and
// its deadline is slack a later arrival may displace the job into.
//
// Guarantee discipline (provable, asserted in tests):
//  * on arrival, a job's deadline is fixed from its conservative anchor;
//  * displacement trials re-anchor the queue in earliest-deadline-first
//    order and commit only if every job keeps start <= deadline;
//  * completions trigger conservative compression, which only moves
//    reservations earlier. Hence no job ever starts after its deadline.
//
// Everything except arrival is conservative backfilling: the profile,
// reservations, compression, due starts and the finish / cancel / kill /
// repair hooks are ConservativeScheduler's. Slack overrides the arrival
// (which may displace) and the outage, after which it re-bases every
// queued job's deadline.
#pragma once

#include <cstdint>
#include <vector>

#include "core/conservative_scheduler.hpp"

namespace bfsim::core {

class SlackScheduler final : public ConservativeScheduler {
 public:
  /// `slack_factor` >= 0: each job tolerates being pushed back by at
  /// most slack_factor x its own estimate past its arrival guarantee.
  SlackScheduler(SchedulerConfig config, double slack_factor);

  bool job_submitted(const Job& job, Time now) override;
  bool node_down(const sim::Outage& outage, Time now) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double slack_factor() const { return slack_factor_; }

  /// Latest start a queued job can ever be pushed to.
  [[nodiscard]] Time deadline_of(JobId id) const {
    return deadlines_.at(id);
  }
  /// Number of arrivals that displaced existing reservations.
  [[nodiscard]] std::uint64_t displacements() const {
    return displacements_;
  }

  // Auditor introspection: as conservative, except that displacement may
  // legally move a reservation *later* (bounded by its deadline), so
  // guarantees are not monotone here.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }

 private:
  double slack_factor_;
  /// Per-job deadline. Read only while the job is queued, so the entries
  /// of started and cancelled jobs are simply left behind.
  TimeByJob deadlines_;
  std::uint64_t displacements_ = 0;
  /// try_displace's working storage, reused across attempts: the trial
  /// profile, the queue in EDF order and each job's trial anchor.
  MultiProfile trial_;
  std::vector<const Job*> edf_;
  std::vector<Time> trial_anchors_;

  /// The job's displacement budget: slack_factor x estimate, rounded.
  [[nodiscard]] Time slack_of(const Job& job) const;

  /// Try to start `job` at `now` by re-anchoring every queued job in
  /// EDF order behind it. Commits and returns true when every deadline
  /// survives; leaves state untouched otherwise.
  bool try_displace(const Job& job, Time now);
};

}  // namespace bfsim::core
