#include "core/audit.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bfsim::core {

namespace {

/// Index of the segment of a canonical timeline containing t >= 0.
std::size_t segment_index(const std::vector<MultiProfile::Segment>& segments,
                          Time t) {
  const auto it = std::upper_bound(
      segments.begin(), segments.end(), t,
      [](Time time, const MultiProfile::Segment& s) { return time < s.begin; });
  return static_cast<std::size_t>(it - segments.begin()) - 1;
}

}  // namespace

std::string AuditViolation::to_string() const {
  std::string out = "[" + invariant + "] t=" + std::to_string(when);
  if (job != workload::kInvalidJob) out += " job=" + std::to_string(job);
  out += " expected=" + std::to_string(expected) +
         " actual=" + std::to_string(actual) + ": " + detail;
  return out;
}

ScheduleAuditor::ScheduleAuditor(const Scheduler& scheduler,
                                 const AuditOptions& options)
    : scheduler_(&scheduler),
      options_(options),
      hooks_(scheduler.audit_hooks()),
      total_procs_(scheduler.config().procs),
      total_bb_(scheduler.config().burst_buffer) {
  if (hooks_.profile) timeline_.emplace(total_procs_, total_bb_);
}

void ScheduleAuditor::record(AuditViolation violation) {
  violations_.push_back(std::move(violation));
  if (options_.fatal)
    throw std::logic_error("schedule audit: " +
                           violations_.back().to_string());
}

void ScheduleAuditor::expire_baselines(JobRecord& rec) {
  if (rec.outage_epoch == outage_epoch_) return;
  rec.outage_epoch = outage_epoch_;
  rec.first_reservation = sim::kNoTime;
  rec.last_reservation = sim::kNoTime;
}

void ScheduleAuditor::add_running(JobId id, const JobRecord& rec) {
  if (!hooks_.profile) return;  // only the profile check reads the index
  const Time end = sim::saturating_add(rec.start, rec.estimate);
  running_.push_back({end, id, rec.procs, rec.bb});
  // Placed at the cycle end, after every release of this batch: a
  // scheduler may start a job into room that a reservation it moves in
  // the same pass leaves only then.
  pending_.push_back({rec.start, end, rec.procs, rec.bb});
}

void ScheduleAuditor::drop_running(JobId id, const JobRecord& rec,
                                   Time now) {
  if (!hooks_.profile) return;
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [id](const RunningJob& job) { return job.id == id; });
  *it = running_.back();
  running_.pop_back();
  release_rect({rec.start, sim::saturating_add(rec.start, rec.estimate),
                rec.procs, rec.bb},
               now);
}

void ScheduleAuditor::drop_held(JobRecord& rec, Time now) {
  if (!hooks_.profile || rec.held_cycle < seeded_cycle_) return;
  rec.held_cycle = 0;
  --holders_;
  release_rect(rec.held, now);
}

void ScheduleAuditor::release_rect(const Rect& rect, Time now) {
  // While the timeline is trusted, every rectangle a record holds is in
  // it over [max(start, now), end) -- placements never begin before the
  // cycle that places them -- so the release cannot overflow.
  if (!timeline_ok_) return;
  const Time begin = std::max(rect.start, now);
  if (rect.end <= begin) return;
  try {
    timeline_->release(begin, rect.end, rect.procs, rect.bb);
  } catch (const std::logic_error&) {
    timeline_ok_ = false;  // e.g. a negative `now`: leave it to the rebuild
  }
}

void ScheduleAuditor::on_submitted(const Job& job, Time now) {
  ++checks_;
  JobRecord rec;
  rec.submit = now;
  rec.estimate = job.estimate;
  rec.procs = job.procs;
  rec.bb = job.bb;
  rec.outage_epoch = outage_epoch_;
  const auto [it, inserted] = jobs_.try_emplace(job.id, rec);
  if (inserted) return;
  // A resubmitted id replaces its record wholesale, running or not.
  if (it->second.running) drop_running(job.id, it->second, now);
  drop_held(it->second, now);
  it->second = rec;
}

void ScheduleAuditor::on_cancelled(JobId id, Time now) {
  ++checks_;
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.start != sim::kNoTime ||
      it->second.cancelled) {
    record({.invariant = "cancel-not-queued",
            .when = now,
            .job = id,
            .detail = "cancellation delivered for a job that is not "
                      "waiting in the queue"});
    return;
  }
  it->second.cancelled = true;
  drop_held(it->second, now);
  if (id == pinned_head_) {
    pinned_head_ = workload::kInvalidJob;
    pinned_start_ = sim::kNoTime;
  }
}

void ScheduleAuditor::on_started(const Job& job, Time now) {
  const auto it = jobs_.find(job.id);
  if (it == jobs_.end()) {
    record({.invariant = "start-unknown-job",
            .when = now,
            .job = job.id,
            .detail = "job started without a preceding submission"});
    return;
  }
  JobRecord& rec = it->second;
  ++checks_;
  if (rec.start != sim::kNoTime) {
    record({.invariant = "double-start",
            .when = now,
            .job = job.id,
            .expected = rec.start,
            .actual = now,
            .detail = "job started a second time"});
    return;
  }
  ++checks_;
  if (rec.cancelled)
    record({.invariant = "start-after-cancel",
            .when = now,
            .job = job.id,
            .detail = "job started after it was withdrawn"});
  ++checks_;
  if (now < rec.submit)
    record({.invariant = "start-before-submit",
            .when = now,
            .job = job.id,
            .expected = rec.submit,
            .actual = now,
            .detail = "job started before its submission time"});
  ++checks_;
  if (busy_ + rec.procs > total_procs_ - down_)
    record({.invariant = "capacity",
            .when = now,
            .job = job.id,
            .expected = total_procs_ - down_,
            .actual = busy_ + rec.procs,
            .detail = "machine oversubscribed: " + std::to_string(busy_) +
                      " busy + " + std::to_string(rec.procs) + " started > " +
                      std::to_string(total_procs_ - down_) +
                      " available processors (" + std::to_string(down_) +
                      " down)"});
  ++checks_;
  if (busy_bb_ + rec.bb > total_bb_ - down_bb_)
    record({.invariant = "capacity-bb",
            .when = now,
            .job = job.id,
            .expected = total_bb_ - down_bb_,
            .actual = busy_bb_ + rec.bb,
            .detail = "burst buffer oversubscribed: " +
                      std::to_string(busy_bb_) + " busy + " +
                      std::to_string(rec.bb) + " started > " +
                      std::to_string(total_bb_ - down_bb_) +
                      " available GB (" + std::to_string(down_bb_) +
                      " down)"});
  expire_baselines(rec);
  if (hooks_.monotone_reservations &&
      rec.first_reservation != sim::kNoTime) {
    ++checks_;
    if (now > rec.first_reservation)
      record({.invariant = "guarantee-delayed",
              .when = now,
              .job = job.id,
              .expected = rec.first_reservation,
              .actual = now,
              .detail = "job started later than its first-assigned "
                        "reservation (conservative guarantee broken)"});
  }
  if (hooks_.head_guarantee && job.id == pinned_head_) {
    ++checks_;
    if (now > pinned_start_)
      record({.invariant = "head-guarantee-delayed",
              .when = now,
              .job = job.id,
              .expected = pinned_start_,
              .actual = now,
              .detail = "queue head started later than its pinned "
                        "reservation (EASY guarantee broken)"});
    pinned_head_ = workload::kInvalidJob;
    pinned_start_ = sim::kNoTime;
  }
  drop_held(rec, now);
  rec.start = now;
  rec.running = true;
  add_running(job.id, rec);
  busy_ += rec.procs;
  busy_bb_ += rec.bb;
}

void ScheduleAuditor::on_finished(JobId id, Time now) {
  const auto it = jobs_.find(id);
  ++checks_;
  if (it == jobs_.end() || !it->second.running) {
    record({.invariant = "finish-not-running",
            .when = now,
            .job = id,
            .detail = "completion delivered for a job that is not running"});
    return;
  }
  JobRecord& rec = it->second;
  ++checks_;
  if (now <= rec.start)
    record({.invariant = "finish-before-start",
            .when = now,
            .job = id,
            .expected = sim::saturating_add(rec.start, 1),
            .actual = now,
            .detail = "job finished at-or-before its start"});
  ++checks_;
  if (now > sim::saturating_add(rec.start, rec.estimate))
    record({.invariant = "finish-past-limit",
            .when = now,
            .job = id,
            .expected = sim::saturating_add(rec.start, rec.estimate),
            .actual = now,
            .detail = "job ran past its wall-clock limit (estimate not "
                      "enforced)"});
  drop_running(id, rec, now);
  rec.running = false;
  rec.finished = true;
  busy_ -= rec.procs;
  busy_bb_ -= rec.bb;
}

void ScheduleAuditor::on_killed(JobId id, Time now) {
  const auto it = jobs_.find(id);
  ++checks_;
  if (it == jobs_.end() || !it->second.running) {
    record({.invariant = "kill-not-running",
            .when = now,
            .job = id,
            .detail = "kill delivered for a job that is not running"});
    return;
  }
  // No wall-clock-limit check: an outage may void a run at any instant
  // from its start onward. The voided run stops counting as a start, so
  // the job may start again after its requeue.
  JobRecord& rec = it->second;
  drop_running(id, rec, now);
  rec.running = false;
  rec.start = sim::kNoTime;
  rec.first_reservation = sim::kNoTime;
  rec.last_reservation = sim::kNoTime;
  busy_ -= rec.procs;
  busy_bb_ -= rec.bb;
}

void ScheduleAuditor::on_requeued(const Job& job, Time now) {
  const auto it = jobs_.find(job.id);
  ++checks_;
  if (it == jobs_.end() || it->second.running ||
      it->second.start != sim::kNoTime || it->second.finished ||
      it->second.cancelled) {
    record({.invariant = "requeue-not-killed",
            .when = now,
            .job = job.id,
            .detail = "requeue delivered for a job that was not killed"});
    return;
  }
  // The estimate may shrink under the resubmit-remaining policy; submit
  // stays the original arrival (start-before-submit keeps holding).
  JobRecord& rec = it->second;
  rec.estimate = job.estimate;
  rec.procs = job.procs;
  rec.bb = job.bb;
}

void ScheduleAuditor::on_node_down(const sim::Outage& outage, Time now) {
  // The decision core kills victims first, so by the time the downtime
  // registers its demand must already be free on both axes.
  ++checks_;
  if (busy_ + down_ + outage.procs > total_procs_ ||
      busy_bb_ + down_bb_ + outage.bb > total_bb_)
    record({.invariant = "outage-capacity",
            .when = now,
            .expected = total_procs_ - down_ - outage.procs,
            .actual = busy_,
            .detail = "outage " + std::to_string(outage.id) +
                      " registered while its capacity is still held by "
                      "running jobs (insufficient kills)"});
  down_ += outage.procs;
  down_bb_ += outage.bb;
  active_outages_.push_back(outage);
  // Downtime occupies capacity exactly like a running job, until its
  // repair; it joins the timeline with this batch's starts. Its
  // rectangle ends at the repair instant, so on_node_up frees nothing.
  if (hooks_.profile)
    pending_.push_back({now, outage.repair_at, outage.procs, outage.bb});
  // Force majeure: the degraded machine may make every pre-outage
  // guarantee physically impossible, so the monotone baselines restart
  // from the post-outage reservations (DESIGN.md section 15). A new
  // epoch voids them all at once; expire_baselines applies it lazily.
  ++outage_epoch_;
  pinned_head_ = workload::kInvalidJob;
  pinned_start_ = sim::kNoTime;
}

void ScheduleAuditor::on_node_up(const sim::Outage& outage, Time now) {
  const auto it = std::find_if(
      active_outages_.begin(), active_outages_.end(),
      [&outage](const sim::Outage& o) { return o.id == outage.id; });
  ++checks_;
  if (it == active_outages_.end() || it->repair_at != now) {
    record({.invariant = "repair-unknown-outage",
            .when = now,
            .expected = it == active_outages_.end() ? sim::kNoTime
                                                    : it->repair_at,
            .actual = now,
            .detail = "repair delivered for outage " +
                      std::to_string(outage.id) +
                      " which is not active at this instant"});
    return;
  }
  down_ -= it->procs;
  down_bb_ -= it->bb;
  active_outages_.erase(it);
}

void ScheduleAuditor::hold_reservation(JobRecord& rec,
                                       const AuditReservation& res,
                                       Time now) {
  if (rec.held_cycle == cycle_ || res.procs < 0 || res.bb < 0) {
    // A duplicate id or a negative demand: no one rectangle per record
    // stands for it, so the rebuild decides.
    timeline_ok_ = false;
    return;
  }
  ++reported_;
  const Rect rect{res.start, sim::saturating_add(res.start, res.estimate),
                  res.procs, res.bb};
  if (rec.held_cycle >= seeded_cycle_) {
    rec.held_cycle = cycle_;
    if (rec.held == rect) return;  // the common case: nothing moved
    release_rect(rec.held, now);
  } else {
    rec.held_cycle = cycle_;
    ++holders_;
  }
  rec.held = rect;
  pending_.push_back(rect);
}

void ScheduleAuditor::check_reservations(
    Time now, const std::vector<AuditReservation>& reported) {
  // One lookup per reported reservation serves both the reservation
  // checks and the kept timeline's diff.
  const bool keep = hooks_.profile && timeline_ok_;
  if (hooks_.reservations || keep) {
    for (const AuditReservation& res : reported) {
      const auto it = jobs_.find(res.id);
      const bool queued = it != jobs_.end() &&
                          it->second.start == sim::kNoTime &&
                          !it->second.cancelled;
      if (keep) {
        if (queued)
          hold_reservation(it->second, res, now);
        else
          timeline_ok_ = false;  // a rectangle no queued job holds
      }
      if (!hooks_.reservations) continue;
      ++checks_;
      if (!queued) {
        record({.invariant = "reservation-unknown-job",
                .when = now,
                .job = res.id,
                .detail = "reservation reported for a job that is not "
                          "waiting in the queue"});
        continue;
      }
      JobRecord& rec = it->second;
      expire_baselines(rec);
      ++checks_;
      if (res.start < now)
        record({.invariant = "reservation-in-past",
                .when = now,
                .job = res.id,
                .expected = now,
                .actual = res.start,
                .detail = "guaranteed start lies in the past (missed "
                          "start / stale reservation)"});
      if (hooks_.monotone_reservations &&
          rec.last_reservation != sim::kNoTime) {
        ++checks_;
        if (res.start > rec.last_reservation)
          record({.invariant = "guarantee-delayed",
                  .when = now,
                  .job = res.id,
                  .expected = rec.last_reservation,
                  .actual = res.start,
                  .detail = "guaranteed start moved later (conservative "
                            "guarantee broken)"});
      }
      if (rec.first_reservation == sim::kNoTime)
        rec.first_reservation = res.start;
      rec.last_reservation = res.start;
    }
  }
  if (hooks_.head_guarantee) {
    // At most one pinned reservation: the queue head's. Losing the pin
    // (head started, was cancelled, or was displaced by a higher
    // priority arrival) voids the old commitment; keeping it for the
    // same job must never move it later.
    if (reported.empty()) {
      pinned_head_ = workload::kInvalidJob;
      pinned_start_ = sim::kNoTime;
    } else {
      const AuditReservation& head = reported.front();
      if (head.id == pinned_head_) {
        ++checks_;
        if (head.start > pinned_start_)
          record({.invariant = "head-guarantee-delayed",
                  .when = now,
                  .job = head.id,
                  .expected = pinned_start_,
                  .actual = head.start,
                  .detail = "pinned head reservation moved later (a "
                            "backfill delayed the queue head)"});
      }
      pinned_head_ = head.id;
      pinned_start_ = head.start;
    }
  }
}

void ScheduleAuditor::check_profile(
    Time now, const std::vector<AuditReservation>& reported) {
  const bool kept = place_pending(now);
  const MultiProfile* actual = scheduler_->audit_profile();
  if (actual == nullptr) return;
  ++checks_;
  if (actual->total_procs() != total_procs_) {
    record({.invariant = "profile-divergence",
            .when = now,
            .expected = total_procs_,
            .actual = actual->total_procs(),
            .detail = "profile machine size differs from the scheduler "
                      "configuration"});
    return;
  }
  ++checks_;
  if (actual->total_bb() != total_bb_) {
    record({.invariant = "profile-divergence",
            .when = now,
            .expected = total_bb_,
            .actual = actual->total_bb(),
            .detail = "profile burst-buffer capacity differs from the "
                      "scheduler configuration"});
    return;
  }
  // The kept timeline answers the common case. Everything else --
  // including any divergence, whose diagnostic must name the same
  // instant a point-by-point audit would -- takes the reserve() path:
  // its diagnostics and check counts are the reference ones.
  if (kept && now >= 0 && timeline_matches(now, *actual)) return;
  check_profile_by_reserve(now, reported, *actual);
}

bool ScheduleAuditor::place_pending(Time now) {
  // Every queued job the timeline holds a rectangle for must have been
  // in this report: each reported one was diffed, so equal counts mean
  // no holder went unreported (a job the scheduler dropped from its
  // report while it still waits).
  if (reported_ != holders_) timeline_ok_ = false;
  reported_ = 0;
  if (timeline_ok_) {
    // Releases already ran; placing only now keeps each intermediate
    // timeline at least as free as the final one, which a consistent
    // scheduler keeps non-negative.
    try {
      timeline_->discard_before(now);
      for (const Rect& rect : pending_) {
        const Time begin = std::max(rect.start, now);
        if (rect.end > begin)
          timeline_->reserve(begin, rect.end, rect.procs, rect.bb);
      }
    } catch (const std::logic_error&) {
      timeline_ok_ = false;  // the rectangles cannot coexist
    }
  }
  pending_.clear();
  return timeline_ok_;
}

bool ScheduleAuditor::timeline_matches(Time now, const MultiProfile& actual) {
  // Two piecewise-constant timelines are equal on [now, inf) iff they
  // agree at `now` and at every breakpoint >= now of either: walk both
  // breakpoint lists in step from the segments containing `now`.
  const std::vector<MultiProfile::Segment>& want = timeline_->segments();
  const std::vector<MultiProfile::Segment>& got = actual.segments();
  const std::size_t want_now = segment_index(want, now);
  const std::size_t got_now = segment_index(got, now);
  // Visits of the ordered scan: `now`, then every breakpoint >= now of
  // each timeline. A rebuilt timeline starts from a fully free origin
  // segment, so it has a breakpoint at `now` exactly when now == 0 or
  // something is held there; the kept one may instead still carry the
  // segment that began before `now`. Count the rebuilt form's, so that
  // checks() stays that of the point-by-point audit.
  const bool want_at_now = now == 0 || want[want_now].procs != total_procs_ ||
                           want[want_now].bb != total_bb_;
  const std::size_t visits = 1 + (want.size() - want_now - 1) +
                             (want_at_now ? 1 : 0) + (got.size() - got_now) -
                             (got[got_now].begin < now ? 1 : 0);
  std::size_t i = want_now;
  std::size_t j = got_now;
  for (;;) {
    if (want[i].procs != got[j].procs || want[i].bb != got[j].bb)
      return false;
    const bool more_want = i + 1 < want.size();
    const bool more_got = j + 1 < got.size();
    if (!more_want && !more_got) break;
    if (more_want && (!more_got || want[i + 1].begin <= got[j + 1].begin)) {
      if (more_got && got[j + 1].begin == want[i + 1].begin) ++j;
      ++i;
    } else {
      ++j;
    }
  }
  // Agreement: the ordered scan would have made both axis checks at
  // every instant it visits.
  checks_ += 2 * static_cast<std::uint64_t>(visits);
  return true;
}

void ScheduleAuditor::check_profile_by_reserve(
    Time now, const std::vector<AuditReservation>& reported,
    const MultiProfile& actual) {
  // Running jobs in id order, so the overflow diagnostic (whichever
  // reserve() trips first) is identical across runs.
  std::vector<RunningJob> by_id = running_;
  std::sort(by_id.begin(), by_id.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.id < b.id;
            });
  MultiProfile expected{total_procs_, total_bb_};
  timeline_ok_ = false;  // until reseed() adopts the rebuild
  try {
    for (const RunningJob& job : by_id)
      if (job.end > now) expected.reserve(now, job.end, job.procs, job.bb);
    for (const AuditReservation& res : reported) {
      const Time begin = std::max(res.start, now);
      const Time end = sim::saturating_add(res.start, res.estimate);
      if (end > begin) expected.reserve(begin, end, res.procs, res.bb);
    }
    for (const sim::Outage& outage : active_outages_)
      if (outage.repair_at > now)
        expected.reserve(now, outage.repair_at, outage.procs, outage.bb);
  } catch (const std::logic_error& error) {
    // The implied occupancy itself overflows the machine: the running +
    // reserved rectangles cannot coexist, which is its own violation.
    record({.invariant = "profile-divergence",
            .when = now,
            .detail = std::string{"running + reserved jobs overflow the "
                                  "machine: "} +
                      error.what()});
    return;
  }
  reseed(std::move(expected), reported);
  scan_for_divergence(now, timeline_->segments(), actual);
}

void ScheduleAuditor::reseed(MultiProfile&& rebuilt,
                             const std::vector<AuditReservation>& reported) {
  ++reseeds_;
  *timeline_ = std::move(rebuilt);
  // A fresh cycle number voids every older hold at once; the running
  // and outage rectangles need no holder records.
  seeded_cycle_ = ++cycle_;
  holders_ = 0;
  for (const AuditReservation& res : reported) {
    const auto it = jobs_.find(res.id);
    if (it == jobs_.end() || it->second.start != sim::kNoTime ||
        it->second.cancelled || it->second.held_cycle == cycle_ ||
        res.procs < 0 || res.bb < 0)
      return;  // no queued job to hold this rectangle: rebuild next cycle
    JobRecord& rec = it->second;
    rec.held = {res.start, sim::saturating_add(res.start, res.estimate),
                res.procs, res.bb};
    rec.held_cycle = cycle_;
    ++holders_;
  }
  timeline_ok_ = true;
}

void ScheduleAuditor::scan_for_divergence(
    Time now, const std::vector<MultiProfile::Segment>& expected,
    const MultiProfile& actual) {
  auto diverges_at = [&](Time t) {
    ++checks_;
    // The scheduler's profile is read first: it rejects a negative `t`.
    const int got = actual.procs_free_at(t);
    const MultiProfile::Segment& want = expected[segment_index(expected, t)];
    if (want.procs != got) {
      record({.invariant = "profile-divergence",
              .when = now,
              .expected = want.procs,
              .actual = got,
              .detail = "availability profile free(" + std::to_string(t) +
                        ") disagrees with occupancy implied by running + "
                        "reserved jobs (stale breakpoint)"});
      return true;
    }
    ++checks_;
    const int got_bb = actual.bb_free_at(t);
    if (want.bb != got_bb) {
      record({.invariant = "profile-divergence",
              .when = now,
              .expected = want.bb,
              .actual = got_bb,
              .detail = "availability profile burst-buffer free(" +
                        std::to_string(t) + ") disagrees with occupancy "
                        "implied by running + reserved jobs (stale "
                        "breakpoint)"});
      return true;
    }
    return false;
  };
  if (diverges_at(now)) return;
  for (const MultiProfile::Segment& seg : expected)
    if (seg.begin >= now && diverges_at(seg.begin)) return;
  for (const MultiProfile::Segment& seg : actual.segments())
    if (seg.begin >= now && diverges_at(seg.begin)) return;
}

void ScheduleAuditor::on_cycle_end(Time now) {
  if (!hooks_.reservations && !hooks_.head_guarantee && !hooks_.profile)
    return;
  // One fetch per cycle: both checks read the same reservations.
  const std::vector<AuditReservation> reported =
      scheduler_->audit_reservations();
  if (hooks_.profile) ++cycle_;
  check_reservations(now, reported);
  if (hooks_.profile) check_profile(now, reported);
}

}  // namespace bfsim::core
