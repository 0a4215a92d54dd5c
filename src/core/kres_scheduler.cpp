#include "core/kres_scheduler.hpp"

#include <stdexcept>
#include <string>

namespace bfsim::core {

KReservationScheduler::KReservationScheduler(SchedulerConfig config,
                                             int depth)
    : SchedulerBase(config),
      depth_(depth),
      profile_(config.procs, config.burst_buffer) {
  if (depth < 0)
    throw std::invalid_argument("KReservationScheduler: depth must be >= 0");
}

bool KReservationScheduler::job_submitted(const Job& job, Time now) {
  insert_queued(job, now);
  // Under pure arrival order the newcomer sorts last: the guarantee
  // holders ahead of it are unchanged and, since the reservation set is
  // recomputed statelessly per pass, nobody else became eligible -- the
  // arrival matters only if it can start right now, for which fitting
  // into the free processors is necessary. Under any other order the
  // newcomer can displace a guarantee holder, and the freed constraint
  // can unblock a backfill further down.
  if (config_.priority != PriorityPolicy::Fcfs) return true;
  return fits_now(job);
}

bool KReservationScheduler::job_finished(JobId id, Time now) {
  commit_finish(id, now);
  return !queue_.empty();
}

void KReservationScheduler::select_starts(Time now, std::vector<Job>& out) {
  ensure_sorted(now);
  // Copy-assigned into the member, so steady-state passes reuse its
  // storage instead of allocating a profile each.
  profile_ = profile_from_running_and_outages(now);
  MultiProfile& profile = profile_;
  // One pass in priority order. A job starts when it fits *now* without
  // disturbing the reservations placed so far; otherwise the first
  // `depth_` blocked jobs are granted reservations that later jobs must
  // respect, and the rest are skipped.
  int reserved = 0;
  std::vector<JobId>& to_start = start_scratch_;
  to_start.clear();
  for (const Job& job : queue_) {
    if (reserved < depth_) {
      // Starter or guarantee holder either way: fuse the anchor search
      // with the reservation.
      const Time anchor =
          profile.find_and_reserve(job.procs, job.bb, job.estimate, now);
      if (anchor == now) {
        to_start.push_back(job.id);
      } else {
        ++reserved;
      }
    } else if (const Time end = sim::saturating_add(now, job.estimate);
               profile.fits(job.procs, job.bb, now, end)) {
      // Reservation depth exhausted: the job only matters if it can
      // start immediately (anchor == now <=> the window fits now).
      profile.reserve(now, end, job.procs, job.bb);
      to_start.push_back(job.id);
    }
  }
  for (JobId id : to_start) out.push_back(commit_start(id, now));
}

std::string KReservationScheduler::name() const {
  const std::string family = depth_ == kUnboundedReservationDepth
                                 ? "plan"
                                 : "kres" + std::to_string(depth_);
  return family + "-" + to_string(config_.priority);
}

}  // namespace bfsim::core
