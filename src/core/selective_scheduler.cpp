#include "core/selective_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/format.hpp"

namespace bfsim::core {

namespace {
/// Bounded-slowdown threshold (the paper's tau = 10 s).
constexpr Time kSlowdownBound = 10;

/// A lower bound of the first instant t at which xfactor(job, t) >=
/// `threshold` as computed in double. In exact arithmetic the crossing
/// needs wait >= est * (threshold - 1); the conversions, the add and the
/// divide inside xfactor() each round by at most 2^-53 relative, so the
/// computed factor can reach the threshold up to about 4 * 2^-53 *
/// est * threshold seconds early. The margin of 1e-9 * est * threshold
/// plus 2 s covers that, and the rounding of this computation itself,
/// with room to spare: the bound only decides when the exact check
/// starts, never its outcome.
Time crossing_bound(const Job& job, double threshold) {
  const auto est = static_cast<double>(std::max<Time>(job.estimate, 1));
  const double wait = est * ((threshold - 1.0) - threshold * 1e-9) - 2.0;
  if (!(wait > 0.0)) return job.submit;  // due at once (NaN included)
  // No representable wait reaches it: 2^63 exceeds every elapsed time.
  if (wait >= static_cast<double>(sim::kTimeMax)) return sim::kTimeMax;
  return sim::saturating_add(job.submit, static_cast<Time>(wait));
}

/// Heap order for crossings_: earliest bound on top.
struct Later {
  template <typename Crossing>
  bool operator()(const Crossing& a, const Crossing& b) const {
    return a.at > b.at;
  }
};
}  // namespace

SelectiveScheduler::SelectiveScheduler(SchedulerConfig config,
                                       double xfactor_threshold, Mode mode)
    : SchedulerBase(config),
      threshold_(xfactor_threshold),
      mode_(mode),
      profile_(config.procs, config.burst_buffer) {
  if (!(xfactor_threshold >= 1.0))
    throw std::invalid_argument(
        "SelectiveScheduler: threshold must be >= 1.0");
}

void SelectiveScheduler::track(const Job& job) {
  if (job.id >= slots_.size()) slots_.resize(job.id + 1);
  Slot& slot = slots_[job.id];
  ++slot.generation;
  slot.stage = Stage::Waiting;
  crossings_.push_back({crossing_bound(job, threshold_), slot.generation, job});
  std::push_heap(crossings_.begin(), crossings_.end(), Later{});
  // Entries of jobs that started or left before their crossing linger
  // until popped; once they outnumber the queue, drop them in one sweep.
  if (crossings_.size() > 2 * queue_.size() + 64) {
    std::erase_if(crossings_, [this](const Crossing& c) {
      return !current(c, Stage::Waiting);
    });
    std::make_heap(crossings_.begin(), crossings_.end(), Later{});
  }
}

bool SelectiveScheduler::untrack(JobId id) {
  if (id >= slots_.size()) return false;
  Slot& slot = slots_[id];
  const bool was_promoted = slot.stage == Stage::Promoted;
  if (was_promoted) --promoted_;
  // Its heap or pending entry goes stale and is dropped when visited.
  slot.stage = Stage::Absent;
  return was_promoted;
}

bool SelectiveScheduler::promote_due(Time now) {
  // Jobs still in the heap are below the floor threshold, and the bar
  // never drops below the floor: none of them can be promoted now.
  // Those whose bound has passed move to the pending list, whose jobs
  // get the exact comparison.
  while (!crossings_.empty() && crossings_.front().at <= now) {
    std::pop_heap(crossings_.begin(), crossings_.end(), Later{});
    const Crossing crossing = crossings_.back();
    crossings_.pop_back();
    if (!current(crossing, Stage::Waiting)) continue;
    slots_[crossing.job.id].stage = Stage::Pending;
    pending_.push_back(crossing);
  }
  const double bar = effective_threshold();
  bool start_possible = false;
  std::size_t kept = 0;
  for (const Crossing& crossing : pending_) {
    if (!current(crossing, Stage::Pending)) continue;  // started or left
    ++promotion_checks_;
    if (xfactor(crossing.job, now) < bar) {
      pending_[kept++] = crossing;
      continue;
    }
    slots_[crossing.job.id].stage = Stage::Promoted;
    ++promoted_;
    // A fresh guarantee only *blocks* others; it matters immediately
    // only if its holder might start, for which fitting into the free
    // processors is necessary.
    start_possible |= fits_now(crossing.job);
  }
  pending_.resize(kept);
  return start_possible;
}

bool SelectiveScheduler::job_submitted(const Job& job, Time now) {
  insert_queued(job, now);
  track(job);
  // Promotions are clock-driven, so check them at every event. Beyond
  // that, an arrival that does not fit the free processors cannot start,
  // and its (possible) own reservation anchors after everyone already
  // protected -- it delays, never enables. Under XFactor the pass-1
  // anchoring order among already-promoted jobs drifts with the clock,
  // which can surface a start with no state change at all, so any event
  // must trigger a pass while jobs wait.
  const bool promoted_start = promote_due(now);
  if (time_varying_priority()) return true;
  return promoted_start || fits_now(job);
}

bool SelectiveScheduler::job_finished(JobId id, Time now) {
  const RunningJob rj = commit_finish(id, now);
  // Track the realized bounded slowdown of completed jobs: the adaptive
  // promotion bar follows the service level actually delivered.
  const auto bound = static_cast<double>(
      std::max<Time>(sim::checked::elapsed(now, rj.start), kSlowdownBound));
  const auto wait =
      static_cast<double>(sim::checked::elapsed(rj.start, rj.job.submit));
  completed_slowdown_sum_ += (wait + bound) / bound;
  ++completed_jobs_;
  (void)promote_due(now);
  return !queue_.empty();
}

bool SelectiveScheduler::job_killed(JobId id, Time now) {
  // An outage preemption is not a completion: the realized slowdown of
  // the truncated run must not feed the adaptive promotion bar (the job
  // will come back and finish later, contributing exactly once).
  (void)commit_finish(id, now);
  (void)promote_due(now);
  return !queue_.empty();
}

bool SelectiveScheduler::job_cancelled(JobId id, Time now) {
  (void)take_queued(id);
  // Rebuild-style: no persistent profile to patch. Withdrawing a
  // guarantee holder frees the rectangle its reservation pinned, which
  // can unblock a backfill; an unprotected job constrained nobody.
  const bool was_promoted = untrack(id);
  const bool promoted_start = promote_due(now);
  if (queue_.empty()) return false;
  if (time_varying_priority()) return true;
  return was_promoted || promoted_start;
}

double SelectiveScheduler::effective_threshold() const {
  if (mode_ == Mode::FixedThreshold || completed_jobs_ == 0)
    return threshold_;
  return std::max(threshold_, completed_slowdown_sum_ /
                                  static_cast<double>(completed_jobs_));
}

void SelectiveScheduler::select_starts(Time now, std::vector<Job>& out) {
  // Promotion is sticky: once a job's expected slowdown crosses the
  // threshold it keeps its guarantee until it starts. The event hooks
  // already promote at every event time; repeating here keeps direct
  // callers (tests, the reference driver) on the same semantics.
  (void)promote_due(now);

  ensure_sorted(now);
  // Copy-assigned into the member, so steady-state passes reuse its
  // storage instead of allocating a profile each.
  profile_ = profile_from_running_and_outages(now);
  MultiProfile& profile = profile_;
  std::vector<JobId>& to_start = start_scratch_;
  to_start.clear();
  // Pass 1 -- reserved jobs, in priority order: they either start now or
  // anchor their guarantee ahead of everybody else.
  if (promoted_ > 0) {
    for (const Job& job : queue_) {
      if (!is_promoted(job.id)) continue;
      const Time anchor =
          profile.find_and_reserve(job.procs, job.bb, job.estimate, now);
      if (anchor == now) to_start.push_back(job.id);
    }
  }
  // Pass 2 -- unprotected jobs backfill greedily around the guarantees.
  // They start only when they fit immediately (anchor == now <=> the
  // window [now, now + estimate) fits), so a fits() check replaces the
  // full anchor search.
  for (const Job& job : queue_) {
    if (is_promoted(job.id)) continue;
    const Time end = sim::saturating_add(now, job.estimate);
    if (profile.fits(job.procs, job.bb, now, end)) {
      profile.reserve(now, end, job.procs, job.bb);
      to_start.push_back(job.id);
    }
  }
  for (JobId id : to_start) {
    (void)untrack(id);
    out.push_back(commit_start(id, now));
  }
}

std::string SelectiveScheduler::name() const {
  const std::string base =
      mode_ == Mode::AdaptiveMeanSlowdown ? "selective-adaptive" : "selective";
  return base + util::format_fixed(threshold_, 1) + "-" +
         to_string(config_.priority);
}

}  // namespace bfsim::core
