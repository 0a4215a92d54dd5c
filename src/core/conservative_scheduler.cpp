#include "core/conservative_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bfsim::core {

ConservativeScheduler::ConservativeScheduler(SchedulerConfig config)
    : SchedulerBase(config), profile_(config.procs, config.burst_buffer) {}

// Conservative starts jobs only when their reservation comes due, so
// "does a pass matter at `now`" is exactly "is the earliest guarantee
// == now" -- every hook keeps the due-heap current and answers from it.

bool ConservativeScheduler::job_submitted(const Job& job, Time now) {
  Time anchor;
  if (queue_.empty() && fits_now(job)) {
    // O(1) fast path for the idle/low-load regime. With nothing queued
    // the profile holds only running-job rectangles, all of which begin
    // at-or-before `now`: free capacity is non-decreasing on every axis
    // for t >= now, so fitting into the free processors and buffer now
    // means the whole window [now, now + estimate) fits and the
    // earliest anchor is `now` itself -- no search needed,
    // byte-identical to the slow path.
    anchor = now;
    profile_.reserve(now, sim::saturating_add(now, job.estimate), job.procs,
                     job.bb);
  } else {
    anchor = profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
  }
  reservations_.set(job.id, anchor);
  due_.push(anchor, job.id);
  insert_queued(job, now);
  return anchor == now;
}

bool ConservativeScheduler::job_finished(JobId id, Time now) {
  // The clock moved past everything before `now`; drop the consumed
  // history so profile scans stay proportional to the live schedule
  // (queue + running), not to the whole replay so far. Every later
  // profile operation anchors at-or-after `now`, and the auditor only
  // checks the profile from `now` on.
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id, now);
  // Return the unused tail of the job's estimated rectangle. On-time
  // completions (now == est_end) free nothing; compression keeps every
  // reservation at its earliest anchor (a fixpoint, see compress), so
  // with no new capacity it is provably a no-op and is skipped outright
  // instead of re-anchoring the whole queue for nothing. A reservation
  // anchored exactly at this job's est_end can still be due now.
  if (now < rj.est_end) {
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
    compress(now, now, rj.est_end);
  }
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::job_cancelled(JobId id, Time now) {
  const Job job = take_queued(id);
  const Time start = reservations_.at(id);
  const Time end = sim::saturating_add(start, job.estimate);
  profile_.release(start, end, job.procs, job.bb);
  reservations_.erase(id);
  // The vacated rectangle is a fresh hole: compress around it. Capacity
  // only appeared from `start` onwards, so reservations before it are
  // immovable.
  compress(now, start, end);
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::job_killed(JobId id, Time now) {
  // Like an early completion, but without compression: job_killed is
  // only ever followed by the outage's node_down, which rebuilds every
  // guarantee from scratch anyway -- compressing around the victim's
  // tail here would be wasted work on a packing about to be discarded.
  profile_.discard_before(now);
  const RunningJob rj = commit_finish(id, now);
  if (now < rj.est_end)
    profile_.release(now, rj.est_end, rj.job.procs, rj.job.bb);
  return false;  // node_down decides whether a pass is needed
}

bool ConservativeScheduler::node_down(const sim::Outage& outage, Time now) {
  profile_.discard_before(now);
  // The outage invalidates the whole packing: release every queued
  // reservation, fold the downtime in as a system rectangle, and
  // re-anchor the queue in priority order. Guarantees may legally move
  // *later* here -- the auditor resets its monotone baselines on
  // node_down for exactly this reason.
  for (const Job& job : queue_) {
    const Time start = reservations_.at(job.id);
    profile_.release(start, sim::saturating_add(start, job.estimate),
                     job.procs, job.bb);
  }
  SchedulerBase::node_down(outage, now);
  // Succeeds by construction: only running rectangles and previous
  // outage rectangles remain, and the decision core killed victims
  // until the outage's demand was free on both axes.
  profile_.reserve(now, outage.repair_at, outage.procs, outage.bb);
  ensure_sorted(now);
  for (const Job& job : queue_) {
    const Time anchor =
        profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
    reservations_.set(job.id, anchor);
    due_.push(anchor, job.id);
  }
  // Repacking in priority order can legally pull a late job up to `now`
  // (its old anchor was constrained by reservations that just moved).
  return due_.earliest(reservations_) == now;
}

bool ConservativeScheduler::node_up(const sim::Outage& outage, Time now) {
  // The outage's rectangle ends at repair_at == now, so the profile
  // needs no repair; every reservation was anchored with the repair
  // time already known. A guarantee anchored exactly at the repair
  // instant is due now.
  SchedulerBase::node_up(outage, now);
  return due_.earliest(reservations_) == now;
}

Time ConservativeScheduler::next_wakeup() {
  return due_.earliest(reservations_);
}

void ConservativeScheduler::compress(Time now, Time hole_begin,
                                     Time hole_end) {
  if (queue_.empty()) return;
  ensure_sorted(now);
  // Iterate to a fixpoint. A single priority-order pass is not one: a
  // late-priority job that re-anchors earlier vacates its old slot,
  // which can unblock an earlier-priority job that was already visited.
  // The historic single-pass version left such jobs stale and silently
  // relied on the compression run at the *next* completion -- even an
  // on-time one -- to repair them; a stale reservation whose time
  // arrives before any other event is a missed start. (Today the driver
  // would still catch such a start via next_wakeup(); the fixpoint keeps
  // every guarantee honest the moment the hole opens.)
  //
  // Each pass only revisits jobs that could have been unblocked: all
  // capacity freed since a job was last anchored lies at-or-after
  // `hole_begin` (the triggering release, then the slots vacated by
  // jobs moved in earlier passes), and a reservation at start s can
  // only move earlier if some time strictly before s gains capacity --
  // any candidate window blocked at a time >= s would overlap the
  // job's own feasible window, a contradiction. So jobs with
  // reservation <= hole_begin are skipped, and a pass that moves
  // nobody certifies the fixpoint.
  //
  // A job can also only move through an instant whose capacity rose
  // since it was last shown immovable, and only if its whole demand is
  // free there. `bound` holds the most capacity free, per axis, at any
  // such instant: the released span, then each mover's vacated tail,
  // folded in the moment it opens. A job wider than `bound` on either
  // axis is skipped without a probe (DESIGN.md section 11).
  //
  // The rest are probed read-only first (MultiProfile::earlier_anchor):
  // a job whose own rectangle is already its earliest anchor would be
  // released and re-reserved at the same start, and the coalesced
  // profile is canonical, so skipping it leaves the profile exactly as
  // the release + re-reserve would. Only movers touch the profile.
  MultiProfile::Capacity bound = profile_.max_free(hole_begin, hole_end);
  for (;;) {
    Time next_hole = sim::kNoTime;
    // Every job the next pass visits is certified during this one, so
    // only this pass's vacated tails can have raised capacity since.
    MultiProfile::Capacity next_bound;
    for (const Job& job : queue_) {
      const Time old_start = reservations_.at(job.id);
      if (old_start <= hole_begin) continue;  // cannot move earlier
      if (job.procs > bound.procs || job.bb > bound.bb) {
        ++compression_skips_;  // too wide for any instant that gained
        continue;
      }
      const Time probe = profile_.earlier_anchor(job.procs, job.bb,
                                                 job.estimate, now, old_start);
      ++compression_probes_;
      if (probe == sim::kNoTime) continue;  // already at its earliest anchor
      ++compression_moves_;
      const Time old_end = sim::saturating_add(old_start, job.estimate);
      profile_.release(old_start, old_end, job.procs, job.bb);
      const Time anchor =
          profile_.find_and_reserve(job.procs, job.bb, job.estimate, now);
      if (anchor > old_start)
        throw std::logic_error(
            "ConservativeScheduler: compression delayed a guarantee (job " +
            std::to_string(job.id) + ")");
      if (anchor != probe)
        throw std::logic_error(
            "ConservativeScheduler: compression probe disagrees with the "
            "re-anchor (job " +
            std::to_string(job.id) + ")");
      reservations_.set(job.id, anchor);
      due_.push(anchor, job.id);
      // Capacity rose only on the part of the old rectangle the new one
      // does not cover.
      const MultiProfile::Capacity tail = profile_.max_free(
          std::max(old_start, sim::saturating_add(anchor, job.estimate)),
          old_end);
      bound.procs = std::max(bound.procs, tail.procs);
      bound.bb = std::max(bound.bb, tail.bb);
      next_bound.procs = std::max(next_bound.procs, tail.procs);
      next_bound.bb = std::max(next_bound.bb, tail.bb);
      // The vacated slot adds capacity at-or-after old_start: only
      // jobs reserved beyond it can cascade in the next pass.
      next_hole = next_hole == sim::kNoTime ? old_start
                                            : std::min(next_hole, old_start);
    }
    if (next_hole == sim::kNoTime) return;  // nobody moved: fixpoint
    hole_begin = next_hole;
    bound = next_bound;
  }
}

void ConservativeScheduler::select_starts(Time now, std::vector<Job>& out) {
  const Time earliest = due_.earliest(reservations_);
  if (earliest != sim::kNoTime && earliest < now)
    throw std::logic_error(
        "ConservativeScheduler: reservation in the past at t=" +
        std::to_string(now));
  if (earliest != now) return;
  due_scratch_.clear();
  due_.take_due(now, reservations_, due_scratch_);
  if (due_scratch_.size() > 1) {
    // Simultaneous starts commit in priority order: their relative
    // order fixes the order of the finish events they generate.
    ensure_sorted(now);
    order_scratch_.clear();
    for (const Job& job : queue_)
      if (std::find(due_scratch_.begin(), due_scratch_.end(), job.id) !=
          due_scratch_.end())
        order_scratch_.push_back(job.id);
    due_scratch_.swap(order_scratch_);
  }
  for (JobId id : due_scratch_) {
    reservations_.erase(id);
    // The job's rectangle stays reserved in the profile; it is now backed
    // by the running job until job_finished releases the unused tail.
    out.push_back(commit_start(id, now));
  }
}

void ConservativeScheduler::reseed_due() {
  due_.clear();
  for (const Job& job : queue_) due_.push(reservations_.at(job.id), job.id);
}

std::vector<AuditReservation> ConservativeScheduler::audit_reservations()
    const {
  std::vector<AuditReservation> out;
  out.reserve(queue_.size());
  for (const Job& job : queue_)
    out.push_back({job.id, reservations_.at(job.id), job.estimate, job.procs,
                   job.bb});
  return out;
}

std::string ConservativeScheduler::name() const {
  return "conservative-" + to_string(config_.priority);
}

}  // namespace bfsim::core
