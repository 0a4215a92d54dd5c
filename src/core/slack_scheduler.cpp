#include "core/slack_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/format.hpp"

namespace bfsim::core {

SlackScheduler::SlackScheduler(SchedulerConfig config, double slack_factor)
    : ConservativeScheduler(config),
      slack_factor_(slack_factor),
      trial_(config.procs, config.burst_buffer) {
  if (!(slack_factor >= 0.0))
    throw std::invalid_argument("SlackScheduler: slack_factor must be >= 0");
}

Time SlackScheduler::slack_of(const Job& job) const {
  return static_cast<Time>(
      std::llround(slack_factor_ * static_cast<double>(job.estimate)));
}

// Like conservative, slack starts jobs only when a reservation comes
// due: a displacing arrival reserves `now` for itself, which the
// due-heap check reports.

bool SlackScheduler::job_submitted(const Job& job, Time now) {
  // The conservative guarantee anchors the deadline; the slack budget is
  // proportional to the job's own estimated length. With nothing queued
  // the profile holds only running rectangles (free non-decreasing past
  // `now`), so a job that fits the free processors anchors at `now`
  // without a search -- same O(1) fast path as conservative.
  const Time anchor =
      queue_.empty() && fits_now(job)
          ? now
          : profile_.earliest_anchor(job.procs, job.bb, job.estimate, now);
  deadlines_.set(job.id, sim::saturating_add(anchor, slack_of(job)));

  if (anchor > now && try_displace(job, now))
    return due_.earliest(reservations_) == now;

  profile_.reserve(anchor, sim::saturating_add(anchor, job.estimate),
                   job.procs, job.bb);
  reservations_.set(job.id, anchor);
  due_.push(anchor, job.id);
  insert_queued(job, now);
  return anchor == now;
}

bool SlackScheduler::try_displace(const Job& job, Time now) {
  // Trial plan: the newcomer takes [now, now + estimate); everyone else
  // re-anchors around it in earliest-deadline-first order. EDF places
  // the tightest guarantees first, which maximizes the chance that all
  // of them survive.
  trial_ = profile_from_running_and_outages(now);
  const Time newcomer_end = sim::saturating_add(now, job.estimate);
  if (!trial_.fits(job.procs, job.bb, now, newcomer_end)) return false;
  trial_.reserve(now, newcomer_end, job.procs, job.bb);

  edf_.clear();
  for (const Job& queued : queue_) edf_.push_back(&queued);
  std::sort(edf_.begin(), edf_.end(), [this](const Job* a, const Job* b) {
    const Time da = deadlines_.at(a->id);
    const Time db = deadlines_.at(b->id);
    if (da != db) return da < db;
    return a->id < b->id;
  });

  // The trial anchors, parallel to edf_: sized by the queue, not by the
  // largest job id seen.
  trial_anchors_.clear();
  for (const Job* queued : edf_) {
    // Fused search + reserve; the trial is discarded wholesale on
    // failure, so reserving before the deadline check is harmless.
    const Time anchor =
        trial_.find_and_reserve(queued->procs, queued->bb, queued->estimate,
                                now);
    if (anchor > deadlines_.at(queued->id)) return false;  // slack exhausted
    trial_anchors_.push_back(anchor);
  }

  // Feasible: commit the trial plan (the old profile becomes the next
  // attempt's scratch). Every queued job was re-anchored, so the due
  // heap is re-seeded rather than topped up.
  std::swap(profile_, trial_);
  for (std::size_t i = 0; i < edf_.size(); ++i)
    reservations_.set(edf_[i]->id, trial_anchors_[i]);
  reservations_.set(job.id, now);
  insert_queued(job, now);  // invalidates edf_
  reseed_due();
  ++displacements_;
  return true;
}

bool SlackScheduler::node_down(const sim::Outage& outage, Time now) {
  const bool due_now = ConservativeScheduler::node_down(outage, now);
  // Re-base each deadline from the post-outage anchor: the pre-outage
  // promise may be physically impossible on the degraded machine, so
  // the outage resets each job's slack budget (force majeure -- the
  // contract DESIGN.md section 15 documents). anchor <= deadline still
  // holds by construction.
  for (const Job& job : queue_)
    deadlines_.set(job.id, sim::saturating_add(reservations_.at(job.id),
                                               slack_of(job)));
  return due_now;
}

std::string SlackScheduler::name() const {
  return "slack" + util::format_fixed(slack_factor_, 1) + "-" +
         to_string(config_.priority);
}

}  // namespace bfsim::core
