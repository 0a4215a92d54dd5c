#include "core/easy_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace bfsim::core {

EasyScheduler::EasyScheduler(SchedulerConfig config) : SchedulerBase(config) {}

// Pass-needed rules rely on the invariant that after every executed pass
// no queued job is eligible: the head does not fit, and every backfill
// candidate fails against the head's shadow/extra budget (recomputing
// the shadow from the post-pass running set reproduces exactly the
// budget the pass left off with). With the head, the running set and
// free_ unchanged, previously failing candidates fail again -- so a
// non-fitting, non-head arrival provably cannot trigger a start. Under
// XFactor the head itself can change with the clock, so every event
// requests a pass while jobs wait.

bool EasyScheduler::job_submitted(const Job& job, Time now) {
  insert_queued(job, now);
  if (time_varying_priority()) return true;
  return fits_now(job) || queue_.front().id == job.id;
}

bool EasyScheduler::job_finished(JobId id, Time now) {
  const RunningJob rj = commit_finish(id, now);
  const auto it = std::lower_bound(
      running_by_end_.begin(), running_by_end_.end(),
      RunningByEnd{rj.est_end, id, 0, 0},
      [](const RunningByEnd& a, const RunningByEnd& b) {
        if (a.est_end != b.est_end) return a.est_end < b.est_end;
        return a.id < b.id;
      });
  if (it == running_by_end_.end() || it->id != id)
    throw std::logic_error("EasyScheduler: finished job not in running order");
  running_by_end_.erase(it);
  return !queue_.empty();
}

bool EasyScheduler::job_cancelled(JobId id, Time) {
  const bool was_front = !queue_.empty() && queue_.front().id == id;
  (void)take_queued(id);
  if (queue_.empty()) return false;
  if (time_varying_priority()) return true;
  // Withdrawing the head re-pins the reservation on the next job, which
  // changes every backfill budget; a non-head job was not eligible and
  // constrained nobody.
  return was_front;
}

Job EasyScheduler::start_job(JobId id, Time now) {
  // commit_start saturates est_end the same way, so the by-end order
  // and the running map always agree on clamped far-future completions.
  const Job job = commit_start(id, now);
  const RunningByEnd entry{sim::saturating_add(now, job.estimate), id,
                           job.procs, job.bb};
  running_by_end_.insert(
      std::upper_bound(running_by_end_.begin(), running_by_end_.end(), entry,
                       [](const RunningByEnd& a, const RunningByEnd& b) {
                         if (a.est_end != b.est_end)
                           return a.est_end < b.est_end;
                         return a.id < b.id;
                       }),
      entry);
  return job;
}

EasyScheduler::Shadow EasyScheduler::compute_shadow(const Job& head,
                                                    Time now) const {
  // Walk capacity releases in time order -- running jobs free their
  // processors at their estimated completions, active outages return
  // theirs at repair time -- accumulating until the head fits on *both*
  // axes. free_ + sum(running procs) + sum(down procs) == machine size
  // >= head.procs (and likewise for the burst buffer, which trace
  // validation bounds by the machine), so the walk always succeeds.
  // Releases at one instant are folded as a group: they all free their
  // capacity at the shadow time, so they all count toward the extra
  // capacity available to backfilled jobs.
  int available = free_;
  int available_bb = free_bb_;
  std::size_t i = 0;  // running_by_end_ cursor (sorted by est_end)
  std::size_t k = 0;  // outages_ cursor (sorted by repair_at)
  while (i < running_by_end_.size() || k < outages_.size()) {
    Time release = sim::kTimeMax;
    if (i < running_by_end_.size()) release = running_by_end_[i].est_end;
    if (k < outages_.size())
      release = std::min(release, outages_[k].repair_at);
    while (i < running_by_end_.size() &&
           running_by_end_[i].est_end == release) {
      available += running_by_end_[i].procs;
      available_bb += running_by_end_[i].bb;
      ++i;
    }
    while (k < outages_.size() && outages_[k].repair_at == release) {
      available += outages_[k].procs;
      available_bb += outages_[k].bb;
      ++k;
    }
    if (available >= head.procs && available_bb >= head.bb)
      return Shadow{std::max(release, now), available - head.procs,
                    available_bb - head.bb};
  }
  throw std::logic_error("EasyScheduler: shadow walk failed (accounting bug)");
}

void EasyScheduler::select_starts(Time now, std::vector<Job>& out) {
  last_shadow_ = sim::kNoTime;
  ensure_sorted(now);
  for (;;) {
    if (queue_.empty()) return;
    // Start the head (and re-enter: the next head may now fit too).
    if (fits_now(queue_.front())) {
      out.push_back(start_job(queue_.front().id, now));
      continue;
    }
    // Head blocked: pin its reservation, then run one backfill pass. A
    // backfill must not delay the head on either axis: it either ends
    // by the shadow time or fits into the capacity left over (on both
    // axes) once the head starts there.
    const Job head = queue_.front();
    const Shadow shadow = compute_shadow(head, now);
    last_shadow_ = shadow.time;
    last_head_ = head;
    int extra = shadow.extra_procs;
    int extra_bb = shadow.extra_bb;
    std::size_t i = 1;
    while (i < queue_.size()) {
      const Job& job = queue_[i];
      if (fits_now(job)) {
        const bool ends_by_shadow =
            sim::saturating_add(now, job.estimate) <= shadow.time;
        const bool within_extra = job.procs <= extra && job.bb <= extra_bb;
        if (ends_by_shadow || within_extra) {
          if (!ends_by_shadow) {
            extra -= job.procs;
            extra_bb -= job.bb;
          }
          out.push_back(start_job(job.id, now));
          continue;  // queue_[i] now refers to the next job
        }
      }
      ++i;
    }
    return;
  }
}

std::vector<AuditReservation> EasyScheduler::audit_reservations() const {
  if (last_shadow_ == sim::kNoTime) return {};
  return {{last_head_.id, last_shadow_, last_head_.estimate,
           last_head_.procs, last_head_.bb}};
}

std::string EasyScheduler::name() const {
  return "easy-" + to_string(config_.priority);
}

}  // namespace bfsim::core
