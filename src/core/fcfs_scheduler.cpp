#include "core/fcfs_scheduler.hpp"

namespace bfsim::core {

FcfsScheduler::FcfsScheduler(SchedulerConfig config)
    : SchedulerBase(config) {}

// Pass-needed rules rely on the strict-order invariant: after every
// executed pass the queue head does not fit (or the queue is empty), and
// nothing behind it may start. Under a static priority that state only
// changes when the head changes or processors free up; under XFactor the
// order itself drifts with the clock, so any event may surface a new
// head and every hook requests a pass while jobs wait.

bool FcfsScheduler::job_submitted(const Job& job, Time now) {
  if (time_varying_priority()) {
    head_.insert(job, now);
    return true;
  }
  insert_queued(job, now);
  return queue_.front().id == job.id && fits_now(job);
}

bool FcfsScheduler::job_finished(JobId id, Time now) {
  commit_finish(id, now);
  return waiting();
}

bool FcfsScheduler::job_cancelled(JobId id, Time now) {
  if (time_varying_priority()) {
    head_.erase(id, now);
    return waiting();
  }
  const bool was_front = !queue_.empty() && queue_.front().id == id;
  (void)take_queued(id);
  return was_front && !queue_.empty() && fits_now(queue_.front());
}

bool FcfsScheduler::node_down(const sim::Outage& outage, Time now) {
  (void)SchedulerBase::node_down(outage, now);
  return waiting();
}

bool FcfsScheduler::node_up(const sim::Outage& outage, Time now) {
  (void)SchedulerBase::node_up(outage, now);
  return waiting();
}

void FcfsScheduler::select_starts(Time now, std::vector<Job>& out) {
  // Strict priority order: stop at the first job that does not fit on
  // every resource axis.
  if (time_varying_priority()) {
    for (const Job* head = head_.head(now); head != nullptr && fits_now(*head);
         head = head_.head(now)) {
      const Job job = *head;
      commit_start_of(job, now);
      head_.erase(job.id, now);
      out.push_back(job);
    }
    return;
  }
  while (!queue_.empty() && fits_now(queue_.front()))
    out.push_back(commit_start(queue_.front().id, now));
}

std::string FcfsScheduler::name() const {
  return "nobackfill-" + to_string(config_.priority);
}

}  // namespace bfsim::core
