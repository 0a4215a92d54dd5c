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
  insert_queued(job, now);
  if (time_varying_priority()) return true;
  return queue_.front().id == job.id && fits_now(job);
}

bool FcfsScheduler::job_finished(JobId id, Time now) {
  commit_finish(id, now);
  return !queue_.empty();
}

bool FcfsScheduler::job_cancelled(JobId id, Time) {
  const bool was_front = !queue_.empty() && queue_.front().id == id;
  (void)take_queued(id);
  if (queue_.empty()) return false;
  if (time_varying_priority()) return true;
  return was_front && fits_now(queue_.front());
}

void FcfsScheduler::select_starts(Time now, std::vector<Job>& out) {
  ensure_sorted(now);
  // Strict queue order: stop at the first job that does not fit on
  // every resource axis.
  while (!queue_.empty() && fits_now(queue_.front()))
    out.push_back(commit_start(queue_.front().id, now));
}

std::string FcfsScheduler::name() const {
  return "nobackfill-" + to_string(config_.priority);
}

}  // namespace bfsim::core
