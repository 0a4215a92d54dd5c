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
      total_bb_(scheduler.config().burst_buffer) {}

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
  const RunningJob job{sim::saturating_add(rec.start, rec.estimate), id,
                       rec.procs, rec.bb};
  running_.insert(std::lower_bound(running_.begin(), running_.end(), job),
                  job);
}

void ScheduleAuditor::drop_running(JobId id, const JobRecord& rec) {
  if (!hooks_.profile) return;
  const RunningJob key{sim::saturating_add(rec.start, rec.estimate), id, 0, 0};
  running_.erase(std::lower_bound(running_.begin(), running_.end(), key));
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
  if (it->second.running) drop_running(job.id, it->second);
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
  drop_running(id, rec);
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
  drop_running(id, rec);
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

void ScheduleAuditor::check_reservations(
    Time now, const std::vector<AuditReservation>& reported) {
  if (hooks_.reservations) {
    for (const AuditReservation& res : reported) {
      const auto it = jobs_.find(res.id);
      ++checks_;
      if (it == jobs_.end() || it->second.start != sim::kNoTime ||
          it->second.cancelled) {
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
  // Rectangles that cannot coexist (and a negative `now`, which the
  // sweep's origin segment cannot express) take the reserve() path: its
  // diagnostics are the reference ones.
  if (now < 0 || !build_expected(now, reported)) {
    check_profile_by_reserve(now, reported, *actual);
    return;
  }
  // Two piecewise-constant timelines are equal on [now, inf) iff they
  // agree at `now` and at every breakpoint >= now of either: walk both
  // breakpoint lists in step from the segments containing `now`.
  const std::vector<MultiProfile::Segment>& want = expected_;
  const std::vector<MultiProfile::Segment>& got = actual->segments();
  std::size_t i = segment_index(want, now);
  std::size_t j = segment_index(got, now);
  // The ordered scan visits `now` and every breakpoint >= now of each.
  const std::size_t visits = 1 + (want.size() - i) + (got.size() - j) -
                             (want[i].begin < now ? 1 : 0) -
                             (got[j].begin < now ? 1 : 0);
  for (;;) {
    if (want[i].procs != got[j].procs || want[i].bb != got[j].bb) {
      // Rare (a violation): rerun the ordered scan so the diagnostic and
      // the check count are exactly those of a point-by-point audit.
      scan_for_divergence(now, want, *actual);
      return;
    }
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
  // every visited instant.
  checks_ += 2 * static_cast<std::uint64_t>(visits);
}

bool ScheduleAuditor::build_expected(
    Time now, const std::vector<AuditReservation>& reported) {
  // The expected occupancy from first principles: every running job
  // occupies [now, start + estimate), every reported reservation
  // [max(start, now), start + estimate) and every active outage
  // [now, repair_at). Past times are irrelevant (the scheduler may keep
  // stale history there); equality is required for all t >= now. The
  // end sums saturate exactly like the schedulers' own (commit_start,
  // profile windows): a reservation anchored behind a near-kTimeMax
  // estimate would otherwise wrap negative and silently vanish.
  //
  // With every demand non-negative, free capacity only falls as
  // rectangles are added: reserve() would throw on some rectangle iff a
  // demand is negative or the summed timeline goes negative somewhere.
  bool negative_demand = false;
  deltas_.clear();
  const auto add = [this, &negative_demand](Time begin, Time end, int procs,
                                            int bb) {
    if (end <= begin) return;
    if (procs < 0 || bb < 0) {
      negative_demand = true;
      return;
    }
    deltas_.push_back({begin, procs, bb});
    deltas_.push_back({end, -procs, -bb});
  };
  for (const AuditReservation& res : reported)
    add(std::max(res.start, now), sim::saturating_add(res.start, res.estimate),
        res.procs, res.bb);
  // Downtime occupies capacity exactly like a running job: every
  // profile-keeping scheduler reserves [down_at, repair_at) for each
  // outage, so the independent rebuild must too.
  for (const sim::Outage& outage : active_outages_)
    add(now, outage.repair_at, outage.procs, outage.bb);
  // Running rectangles all begin at `now`; their ends are already sorted.
  auto run = std::partition_point(
      running_.begin(), running_.end(),
      [now](const RunningJob& job) { return job.end <= now; });
  std::int64_t procs = 0;  // demand at the sweep instant
  std::int64_t bb = 0;
  for (auto it = run; it != running_.end(); ++it) {
    negative_demand = negative_demand || it->procs < 0 || it->bb < 0;
    procs += it->procs;
    bb += it->bb;
  }
  if (negative_demand) return false;
  std::sort(deltas_.begin(), deltas_.end(),
            [](const Delta& a, const Delta& b) { return a.at < b.at; });
  expected_.assign(1, MultiProfile::Segment{0, total_procs_, total_bb_});
  auto delta = deltas_.cbegin();
  for (Time t = now;;) {
    for (; delta != deltas_.cend() && delta->at == t; ++delta) {
      procs += delta->procs;
      bb += delta->bb;
    }
    for (; run != running_.end() && run->end == t; ++run) {
      procs -= run->procs;
      bb -= run->bb;
    }
    if (procs > total_procs_ || bb > total_bb_) return false;
    const int free_procs = total_procs_ - static_cast<int>(procs);
    const int free_bb = total_bb_ - static_cast<int>(bb);
    MultiProfile::Segment& last = expected_.back();
    if (last.begin == t) {  // t == 0: the origin segment itself
      last.procs = free_procs;
      last.bb = free_bb;
    } else if (last.procs != free_procs || last.bb != free_bb) {
      expected_.push_back({t, free_procs, free_bb});
    }
    if (delta == deltas_.cend() && run == running_.end()) return true;
    t = std::min(delta == deltas_.cend() ? sim::kTimeMax : delta->at,
                 run == running_.end() ? sim::kTimeMax : run->end);
  }
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
  scan_for_divergence(now, expected.segments(), actual);
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
  if (hooks_.reservations || hooks_.head_guarantee)
    check_reservations(now, reported);
  if (hooks_.profile) check_profile(now, reported);
}

}  // namespace bfsim::core
