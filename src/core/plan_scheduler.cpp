#include "core/plan_scheduler.hpp"

#include <algorithm>
#include <string>

namespace bfsim::core {

PlanScheduler::PlanScheduler(SchedulerConfig config)
    : ConservativeScheduler(config) {}

// Like conservative, plan starts jobs only when a planned start comes
// due, so every hook answers "is a pass needed now" from the due heap.

bool PlanScheduler::job_submitted(const Job& job, Time now) {
  // The newcomer's position is the first one whose anchor can change
  // (under XFactor it was appended, and the repair may move it or others
  // further up).
  const std::size_t pos = insert_queued(job, now);
  replan_from(std::min(pos, ensure_sorted(now)), now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_finished(JobId id, Time now) {
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id, now);
  // An early finish frees [now, est_end), which any queued job may move
  // into. An on-time one frees nothing from `now` on, so every anchor
  // stays put unless the clock reordered an XFactor queue.
  if (now < rj.est_end)
    replan_all(now);
  else
    repair_order(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::job_cancelled(JobId id, Time now) {
  const std::size_t pos = queue_index(id);
  const Job job = take_queued_at(pos);
  const Time start = reservations_.at(id);
  profile_.release(start, sim::saturating_add(start, job.estimate), job.procs,
                   job.bb);
  reservations_.erase(id);
  // Jobs ahead of the cancelled one never saw its rectangle.
  replan_from(std::min(pos, ensure_sorted(now)), now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::node_down(const sim::Outage& outage, Time now) {
  // The killed victims' tails and the outage rectangle are in the live
  // running profile already; the whole plan starts over from it.
  SchedulerBase::node_down(outage, now);
  replan_all(now);
  return due_.earliest(reservations_) == now;
}

bool PlanScheduler::node_up(const sim::Outage& outage, Time now) {
  SchedulerBase::node_up(outage, now);
  // Every anchor was placed with the repair time known, so the repair
  // itself changes nothing.
  repair_order(now);
  return due_.earliest(reservations_) == now;
}

void PlanScheduler::replan_from(std::size_t first, Time now) {
  if (first >= queue_.size()) return;
  for (std::size_t i = first; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    const Time start = reservations_.get(job.id);
    if (start != sim::kNoTime)  // a newcomer holds no rectangle yet
      profile_.release(start, sim::saturating_add(start, job.estimate),
                       job.procs, job.bb);
  }
  anchor_from(first, now, /*reseeded=*/false);
}

void PlanScheduler::replan_all(Time now) {
  (void)ensure_sorted(now);
  // Starting from the live running profile, instead of releasing every
  // rectangle one by one, and re-seeding the due heap instead of piling
  // a second entry per job onto it, keep a full replan as cheap as the
  // stateless one.
  profile_ = profile_from_running_and_outages(now);
  due_.clear();
  anchor_from(0, now, /*reseeded=*/true);
}

void PlanScheduler::anchor_from(std::size_t first, Time now, bool reseeded) {
  for (std::size_t i = first; i < queue_.size(); ++i) {
    const Job& job = queue_[i];
    const Time anchor =
        profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
    if (reseeded || reservations_.get(job.id) != anchor) {
      reservations_.set(job.id, anchor);
      due_.push(anchor, job.id);
    }
  }
  reanchored_ += queue_.size() - first;
  // Moved anchors leave stale heap entries behind, which only drain once
  // the clock passes them; bound them by the queue.
  if (!reseeded && due_.size() > 4 * queue_.size() + 64) reseed_due();
}

void PlanScheduler::repair_order(Time now) {
  const std::size_t first = ensure_sorted(now);
  if (first >= queue_.size()) return;
  if (first == 0)
    replan_all(now);
  else
    replan_from(first, now);
}

std::string PlanScheduler::name() const {
  return "plan-" + to_string(config_.priority);
}

}  // namespace bfsim::core
