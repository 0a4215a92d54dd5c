// The state schedulers keep between events, held to the rebuild it
// replaces.
//
// 1. The live running profile: SchedulerBase keeps the running jobs'
//    rectangles and the active outages in one profile, updated at each
//    start, finish, kill, outage and repair. After every step of a
//    random sequence it must equal, from `now` on, the profile rebuilt
//    job by job from the running set -- the rebuild every pass used to
//    make, kept here as the oracle.
// 2. Selective's promotion pipeline: the crossing-time heap and the
//    pending list against the full queue scan at every event, driven
//    hook by hook so every return value, promoted count and start is
//    compared, in fixed and adaptive modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "core/multi_profile.hpp"
#include "core/scheduler.hpp"
#include "core/selective_scheduler.hpp"
#include "sim/rng.hpp"

namespace bfsim::core {
namespace {

/// The running jobs' profile at `now`, rebuilt from scratch: each running
/// job occupies [now, est_end) on both axes, then each active outage
/// [now, repair_at).
MultiProfile profile_from_running(int total_procs, int total_bb, Time now,
                                  const std::vector<RunningJob>& running,
                                  const std::vector<sim::Outage>& outages) {
  MultiProfile profile{total_procs, total_bb};
  for (const RunningJob& rj : running)
    if (rj.est_end > now)
      profile.reserve(now, rj.est_end, rj.job.procs, rj.job.bb);
  for (const sim::Outage& outage : outages)
    if (outage.repair_at > now)
      profile.reserve(now, outage.repair_at, outage.procs, outage.bb);
  return profile;
}

/// The timeline from `now` on, in canonical form: the value at `now`,
/// then every later breakpoint.
std::vector<MultiProfile::Segment> from_now(const MultiProfile& profile,
                                            Time now) {
  std::vector<MultiProfile::Segment> out{
      {now, profile.procs_free_at(now), profile.bb_free_at(now)}};
  for (const MultiProfile::Segment& segment : profile.segments())
    if (segment.begin > now) out.push_back(segment);
  return out;
}

/// A SchedulerBase with no policy, whose bookkeeping the test drives
/// directly.
class Probe final : public SchedulerBase {
 public:
  using SchedulerBase::SchedulerBase;

  bool job_submitted(const Job& job, Time now) override {
    insert_queued(job, now);
    return false;
  }
  bool job_finished(JobId id, Time now) override {
    (void)commit_finish(id, now);
    return false;
  }
  using Scheduler::select_starts;
  void select_starts(Time, std::vector<Job>&) override {}
  [[nodiscard]] std::string name() const override { return "probe"; }

  Job start(JobId id, Time now) { return commit_start(id, now); }
  [[nodiscard]] MultiProfile live(Time now) const {
    return profile_from_running_and_outages(now);
  }
  [[nodiscard]] int free_procs() const { return free_; }
  [[nodiscard]] int free_bb() const { return free_bb_; }
};

TEST(LiveRunningProfile, MatchesTheRebuildAfterEveryStep) {
  constexpr int kProcs = 32;
  constexpr int kBurstBuffer = 48;
  std::uint64_t early = 0, on_time = 0, kills = 0, downs = 0, ups = 0,
                saturated = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Rng rng{seed};
    Probe probe{SchedulerConfig{kProcs, PriorityPolicy::Fcfs, kBurstBuffer}};
    std::vector<RunningJob> running;  // the oracle's own running set
    std::vector<sim::Outage> outages;
    Time now = 0;
    JobId next_id = 0;
    sim::OutageId next_outage = 0;
    // The live profile is built on first use: sometimes from an empty
    // machine, sometimes from a busy one.
    const int first_use = static_cast<int>(rng.uniform_int(0, 20));
    for (int step = 0; step < 300; ++step) {
      const auto action = rng.uniform_int(0, 9);
      if (action <= 3) {
        // Start a job that fits now; one in eight runs "forever".
        const int procs = static_cast<int>(
            rng.uniform_int(0, std::min(probe.free_procs(), 12)));
        const int bb =
            static_cast<int>(rng.uniform_int(0, std::min(probe.free_bb(), 8)));
        if (procs == 0) continue;
        Job job;
        job.id = next_id++;
        job.submit = now;
        job.procs = procs;
        job.bb = bb;
        job.estimate = rng.uniform_int(0, 7) == 0
                           ? sim::kTimeMax - rng.uniform_int(0, 1000)
                           : rng.uniform_int(1, 500);
        job.runtime = job.estimate;
        probe.job_submitted(job, now);
        (void)probe.start(job.id, now);
        running.push_back({job, now, sim::saturating_add(now, job.estimate)});
        if (running.back().est_end == sim::kTimeMax) ++saturated;
      } else if (action <= 6 && !running.empty()) {
        // Finish (or kill) a running job: at its estimated end when the
        // clock can get there, otherwise early.
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
        const RunningJob rj = running[pick];
        const bool kill = action == 6;
        if (!kill && rng.uniform_int(0, 1) == 0 && rj.est_end >= now &&
            rj.est_end < sim::kTimeMax) {
          now = rj.est_end;
          ++on_time;
        } else {
          ++early;
        }
        if (kill) {
          (void)probe.job_killed(rj.job.id, now);
          ++kills;
        } else {
          (void)probe.job_finished(rj.job.id, now);
        }
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (action == 7 && probe.free_procs() > 0) {
        // An outage takes part of the free capacity until repair_at.
        sim::Outage outage;
        outage.id = next_outage++;
        outage.down_at = now;
        outage.repair_at =
            sim::saturating_add(now, rng.uniform_int(1, 800));
        outage.procs = static_cast<int>(
            rng.uniform_int(1, std::min(probe.free_procs(), 6)));
        outage.bb = static_cast<int>(
            rng.uniform_int(0, std::min(probe.free_bb(), 6)));
        (void)probe.node_down(outage, now);
        outages.push_back(outage);
        ++downs;
      } else if (action == 8 && !outages.empty()) {
        // The earliest repair comes due.
        const auto it = std::min_element(
            outages.begin(), outages.end(),
            [](const sim::Outage& a, const sim::Outage& b) {
              return a.repair_at < b.repair_at;
            });
        now = std::max(now, it->repair_at);
        (void)probe.node_up(*it, now);
        outages.erase(it);
        ++ups;
      } else {
        now = sim::saturating_add(now, rng.uniform_int(0, 120));
      }
      if (step < first_use) continue;
      const MultiProfile want = profile_from_running(
          kProcs, kBurstBuffer, now, running, outages);
      const MultiProfile got = probe.live(now);
      ASSERT_EQ(from_now(got, now), from_now(want, now)) << "step " << step;
      got.check_invariants();
    }
  }
  // Every kind of step happened, saturated estimated ends included.
  EXPECT_GT(early, 0u);
  EXPECT_GT(on_time, 0u);
  EXPECT_GT(kills, 0u);
  EXPECT_GT(downs, 0u);
  EXPECT_GT(ups, 0u);
  EXPECT_GT(saturated, 0u);
}

/// Selective backfilling as it was before the crossing heap: every event
/// scans the whole queue for jobs whose expansion factor reached the bar,
/// and every pass rebuilds its profile from the running set.
class ScanSelective final : public SchedulerBase {
 public:
  ScanSelective(SchedulerConfig config, double threshold,
                SelectiveScheduler::Mode mode)
      : SchedulerBase(config), threshold_(threshold), mode_(mode) {}

  bool job_submitted(const Job& job, Time now) override {
    insert_queued(job, now);
    const bool promoted_start = promote_due(now);
    if (time_varying_priority()) return true;
    return promoted_start || fits_now(job);
  }
  bool job_finished(JobId id, Time now) override {
    const RunningJob rj = commit_finish(id, now);
    const auto bound = static_cast<double>(
        std::max<Time>(sim::checked::elapsed(now, rj.start), 10));
    const auto wait =
        static_cast<double>(sim::checked::elapsed(rj.start, rj.job.submit));
    completed_sum_ += (wait + bound) / bound;
    ++completed_;
    (void)promote_due(now);
    return !queue_.empty();
  }
  bool job_cancelled(JobId id, Time now) override {
    (void)take_queued(id);
    const bool was_promoted = promoted_.erase(id) > 0;
    const bool promoted_start = promote_due(now);
    if (queue_.empty()) return false;
    if (time_varying_priority()) return true;
    return was_promoted || promoted_start;
  }
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    (void)promote_due(now);
    ensure_sorted(now);
    std::vector<RunningJob> running = running_.jobs();
    MultiProfile profile = profile_from_running(
        config_.procs, config_.burst_buffer, now, running, outages_);
    std::vector<JobId> to_start;
    for (const Job& job : queue_) {
      if (!promoted_.contains(job.id)) continue;
      if (profile.find_and_reserve(job.procs, job.bb, job.estimate, now) ==
          now)
        to_start.push_back(job.id);
    }
    for (const Job& job : queue_) {
      if (promoted_.contains(job.id)) continue;
      const Time end = sim::saturating_add(now, job.estimate);
      if (profile.fits(job.procs, job.bb, now, end)) {
        profile.reserve(now, end, job.procs, job.bb);
        to_start.push_back(job.id);
      }
    }
    for (JobId id : to_start) {
      promoted_.erase(id);
      out.push_back(commit_start(id, now));
    }
  }
  [[nodiscard]] std::string name() const override { return "scan"; }
  [[nodiscard]] std::size_t promoted_count() const {
    return promoted_.size();
  }
  [[nodiscard]] bool promoted(JobId id) const { return promoted_.contains(id); }

 private:
  double threshold_;
  SelectiveScheduler::Mode mode_;
  std::unordered_set<JobId> promoted_;
  double completed_sum_ = 0.0;
  std::size_t completed_ = 0;

  bool promote_due(Time now) {
    double bar = threshold_;
    if (mode_ == SelectiveScheduler::Mode::AdaptiveMeanSlowdown &&
        completed_ > 0)
      bar = std::max(threshold_,
                     completed_sum_ / static_cast<double>(completed_));
    bool start_possible = false;
    for (const Job& job : queue_) {
      if (promoted_.contains(job.id) || xfactor(job, now) < bar) continue;
      promoted_.insert(job.id);
      start_possible |= fits_now(job);
    }
    return start_possible;
  }
};

TEST(SelectivePromotion, CrossingHeapMatchesTheFullQueueScan) {
  constexpr int kProcs = 16;
  std::uint64_t promotions = 0, cancelled_promoted = 0, cancelled_pending = 0,
                on_crossing = 0, huge = 0;
  for (const auto mode : {SelectiveScheduler::Mode::FixedThreshold,
                          SelectiveScheduler::Mode::AdaptiveMeanSlowdown}) {
    for (const double threshold : {1.0, 1.5, 2.0, 5.0}) {
      for (const PriorityPolicy priority :
           {PriorityPolicy::Fcfs, PriorityPolicy::XFactor}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          SCOPED_TRACE("threshold " + std::to_string(threshold) + " " +
                       to_string(priority) + " seed " + std::to_string(seed) +
                       (mode == SelectiveScheduler::Mode::FixedThreshold
                            ? " fixed"
                            : " adaptive"));
          const SchedulerConfig config{kProcs, priority};
          SelectiveScheduler heap{config, threshold, mode};
          ScanSelective scan{config, threshold, mode};
          sim::Rng rng{seed * 7919 + static_cast<std::uint64_t>(threshold)};
          std::vector<Job> queued;
          std::vector<std::pair<JobId, Time>> running;  // id, finish time
          Time now = 0;
          JobId next_id = 0;
          const auto pass = [&] {
            const std::vector<Job> a = heap.select_starts(now);
            const std::vector<Job> b = scan.select_starts(now);
            ASSERT_EQ(a, b) << "t=" << now;
            for (const Job& job : a) {
              std::erase_if(queued,
                            [&](const Job& q) { return q.id == job.id; });
              const Time run = std::min(job.runtime, job.estimate);
              running.emplace_back(job.id, sim::saturating_add(now, run));
            }
          };
          // Moves the clock to `t`, finishing on the way every job whose
          // run ends by then (no job outlives its estimate): the jobs
          // ending at one instant, then a pass, as the driver batches.
          const auto advance_to = [&](Time t) {
            for (;;) {
              const auto it = std::min_element(
                  running.begin(), running.end(),
                  [](const auto& a, const auto& b) {
                    return a.second < b.second;
                  });
              if (it == running.end() || it->second > t) break;
              now = std::max(now, it->second);
              const Time end = it->second;
              while (true) {
                const auto done = std::find_if(
                    running.begin(), running.end(),
                    [end](const auto& r) { return r.second == end; });
                if (done == running.end()) break;
                const JobId id = done->first;
                running.erase(done);
                ASSERT_EQ(heap.job_finished(id, now),
                          scan.job_finished(id, now));
              }
              pass();
              if (HasFatalFailure()) return;
            }
            now = std::max(now, t);
          };
          for (int step = 0; step < 400; ++step) {
            const auto action = rng.uniform_int(0, 9);
            if (action <= 4) {
              Job job;
              job.id = next_id++;
              job.submit = now;
              job.procs = static_cast<int>(rng.uniform_int(1, kProcs));
              job.estimate = rng.uniform_int(0, 15) == 0
                                 ? sim::kTimeMax - rng.uniform_int(0, 5)
                                 : rng.uniform_int(1, 300);
              huge += job.estimate > sim::kTimeMax / 2 ? 1 : 0;
              // Huge estimates still finish soon: their estimated ends
              // saturate, the clock does not.
              job.runtime = std::min(job.estimate, rng.uniform_int(1, 300));
              queued.push_back(job);
              ASSERT_EQ(heap.job_submitted(job, now),
                        scan.job_submitted(job, now));
            } else if (action <= 6 && !running.empty()) {
              // The earliest finish comes due.
              const auto it = std::min_element(
                  running.begin(), running.end(),
                  [](const auto& a, const auto& b) {
                    return a.second < b.second;
                  });
              advance_to(it->second);
            } else if (action == 7 && !queued.empty()) {
              // Withdraw a queued job, promoted or not.
              const auto pick = static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(queued.size()) - 1));
              const JobId id = queued[pick].id;
              if (scan.promoted(id))
                ++cancelled_promoted;
              else if (xfactor(queued[pick], now) >= threshold)
                ++cancelled_pending;  // past the floor, below the bar
              queued.erase(queued.begin() +
                           static_cast<std::ptrdiff_t>(pick));
              ASSERT_EQ(heap.job_cancelled(id, now),
                        scan.job_cancelled(id, now));
            } else if (action == 8 && !queued.empty()) {
              // Jump to the exact instant a queued job's expansion
              // factor reaches the floor threshold, when it is ahead.
              const Job& job = queued[static_cast<std::size_t>(
                  rng.uniform_int(0,
                                  static_cast<std::int64_t>(queued.size()) -
                                      1))];
              const double wait = static_cast<double>(job.estimate) *
                                  (threshold - 1.0);
              if (wait < 1e7) {
                const Time at = sim::saturating_add(
                    job.submit, static_cast<Time>(std::ceil(wait)));
                if (at >= now) {
                  advance_to(at);
                  ++on_crossing;
                }
              }
            } else {
              advance_to(sim::saturating_add(now, rng.uniform_int(0, 90)));
            }
            if (HasFatalFailure()) return;
            pass();
            if (HasFatalFailure()) return;
            ASSERT_EQ(heap.promoted_count(), scan.promoted_count())
                << "t=" << now;
            promotions += heap.promoted_count();
          }
        }
      }
    }
  }
  EXPECT_GT(promotions, 0u);
  EXPECT_GT(cancelled_promoted, 0u);
  EXPECT_GT(cancelled_pending, 0u);
  EXPECT_GT(on_crossing, 0u);
  EXPECT_GT(huge, 0u);
}

}  // namespace
}  // namespace bfsim::core
