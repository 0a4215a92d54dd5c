// Differential wall for the ScheduleAuditor's kept timeline: at every
// cycle of randomized audited runs, the timeline the auditor carries
// between cycles must equal, for t >= now, a MultiProfile rebuilt from
// first principles -- every running job, reported reservation and
// active outage reserved into a fresh profile. The rebuild here tracks
// running jobs and outages from the event stream itself, so it shares
// no bookkeeping with the auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/decision_core.hpp"
#include "core/replay.hpp"
#include "core/scheduler.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

/// True when `a` and `b` agree on both axes at `now` and at every
/// breakpoint >= now of either: equality on [now, inf).
bool equal_from(const MultiProfile& a, const MultiProfile& b, Time now) {
  const auto agree = [&](Time t) {
    return a.procs_free_at(t) == b.procs_free_at(t) &&
           a.bb_free_at(t) == b.bb_free_at(t);
  };
  if (!agree(now)) return false;
  for (const MultiProfile* timeline : {&a, &b})
    for (const MultiProfile::Segment& seg : timeline->segments())
      if (seg.begin >= now && !agree(seg.begin)) return false;
  return true;
}

/// A DecisionCore that, after every cycle, holds the auditor's kept
/// timeline to the rebuild. Models the DecisionCore API EngineReplay
/// drives.
class CheckedCore {
 public:
  CheckedCore(Scheduler& scheduler, ScheduleAuditor& auditor,
              sim::RequeuePolicy requeue)
      : scheduler_(scheduler),
        auditor_(auditor),
        core_(scheduler, &auditor, requeue),
        keeps_timeline_(scheduler.audit_hooks().profile) {}

  void on_submit(const Job& job, Time now) {
    jobs_[job.id] = job;
    core_.on_submit(job, now);
  }
  void on_finish(JobId id, Time now) {
    starts_.erase(id);
    core_.on_finish(id, now);
  }
  void on_cancel(JobId id, Time now) { core_.on_cancel(id, now); }
  void on_wake(Time now) { core_.on_wake(now); }
  void on_node_down(const sim::Outage& outage, Time now) {
    outages_.push_back(outage);
    core_.on_node_down(outage, now);
  }
  void on_node_up(sim::OutageId id, Time now) {
    std::erase_if(outages_,
                  [id](const sim::Outage& outage) { return outage.id == id; });
    core_.on_node_up(id, now);
  }
  CycleDecision end_cycle(Time now) {
    const CycleDecision decision = core_.end_cycle(now);
    // A killed run is requeued with its estimate cut by the time it
    // spent under the resubmit-remaining policy (DecisionCore's rule).
    for (const JobId id : decision.killed) {
      Job& job = jobs_.at(id);
      if (core_.requeue_policy() == sim::RequeuePolicy::kResubmitRemaining)
        job.estimate = std::max<Time>(
            1, sim::saturating_sub(job.estimate,
                                   sim::saturating_sub(now, starts_.at(id))));
      starts_.erase(id);
    }
    for (const JobId id : decision.starts) starts_[id] = now;
    check(now);
    return decision;
  }
  [[nodiscard]] const DecisionStats& stats() const { return core_.stats(); }
  [[nodiscard]] sim::RequeuePolicy requeue_policy() const {
    return core_.requeue_policy();
  }
  [[nodiscard]] std::string name() const { return core_.name(); }

  [[nodiscard]] std::size_t compared() const { return compared_; }

 private:
  void check(Time now) {
    const MultiProfile* kept = auditor_.timeline();
    if (!keeps_timeline_) {
      // Schedulers without a profile pay for no timeline at all.
      EXPECT_EQ(kept, nullptr);
      return;
    }
    ASSERT_NE(kept, nullptr);
    const SchedulerConfig& config = scheduler_.config();
    MultiProfile rebuilt{config.procs, config.burst_buffer};
    for (const auto& [id, start] : starts_) {
      const Job& job = jobs_.at(id);
      const Time end = sim::saturating_add(start, job.estimate);
      if (end > now) rebuilt.reserve(now, end, job.procs, job.bb);
    }
    for (const AuditReservation& res : scheduler_.audit_reservations()) {
      const Time begin = std::max(res.start, now);
      const Time end = sim::saturating_add(res.start, res.estimate);
      if (end > begin) rebuilt.reserve(begin, end, res.procs, res.bb);
    }
    for (const sim::Outage& outage : outages_)
      if (outage.repair_at > now)
        rebuilt.reserve(now, outage.repair_at, outage.procs, outage.bb);
    ++compared_;
    EXPECT_TRUE(equal_from(*kept, rebuilt, now))
        << core_.name() << ": kept timeline differs from the rebuild at t="
        << now;
  }

  const Scheduler& scheduler_;
  ScheduleAuditor& auditor_;
  DecisionCore core_;
  bool keeps_timeline_;
  std::map<JobId, Job> jobs_;      ///< latest estimate of every job
  std::map<JobId, Time> starts_;   ///< running jobs -> start
  std::vector<sim::Outage> outages_;  ///< active outages
  std::size_t compared_ = 0;
};

enum class Variant { kPlain, kBurstBuffer, kCancels, kOutagesFull,
                     kOutagesRemaining };

const char* to_string(Variant variant) {
  switch (variant) {
    case Variant::kPlain: return "plain";
    case Variant::kBurstBuffer: return "burst-buffer";
    case Variant::kCancels: return "cancels";
    case Variant::kOutagesFull: return "outages-full";
    case Variant::kOutagesRemaining: return "outages-remaining";
  }
  return "?";
}

TEST(AuditTimeline, KeptTimelineEqualsTheRebuildAtEveryCycle) {
  constexpr int kProcs = 32;
  constexpr int kBurstBuffer = 64;
  const SchedulerKind kinds[] = {
      SchedulerKind::Fcfs,         SchedulerKind::Easy,
      SchedulerKind::Conservative, SchedulerKind::KReservation,
      SchedulerKind::Selective,    SchedulerKind::Slack,
      SchedulerKind::Plan};
  const Variant variants[] = {Variant::kPlain, Variant::kBurstBuffer,
                              Variant::kCancels, Variant::kOutagesFull,
                              Variant::kOutagesRemaining};
  std::uint64_t seed = 0;
  for (const Variant variant : variants) {
    for (const SchedulerKind kind : kinds) {
      ++seed;  // a trace of its own for every cell
      SCOPED_TRACE(to_string(kind) + std::string(" ") + to_string(variant) +
                   " seed " + std::to_string(seed));
      // Overestimated runtimes: early finishes release rectangles and
      // move reservations, where a kept timeline can go stale.
      Trace trace = test::random_trace(160, kProcs, seed,
                                       /*overestimate=*/true);
      SchedulerConfig config{kProcs, PriorityPolicy::Sjf};
      sim::FailureTrace failures;
      sim::RequeuePolicy requeue = sim::RequeuePolicy::kResubmitFull;
      switch (variant) {
        case Variant::kPlain: break;
        case Variant::kBurstBuffer:
          test::assign_random_bb(trace, 24, seed);
          config.burst_buffer = kBurstBuffer;
          break;
        case Variant::kCancels: {
          sim::Rng rng{seed};
          workload::apply_cancellations(trace, 0.2, 2.0, rng);
          break;
        }
        case Variant::kOutagesRemaining:
          requeue = sim::RequeuePolicy::kResubmitRemaining;
          [[fallthrough]];
        case Variant::kOutagesFull:
          failures = sim::generate_failures(
              {.mean_uptime = 4.0 * sim::kHour,
               .mean_repair = 1.0 * sim::kHour,
               .max_procs_lost = 8},
              kProcs, 0, seed);
          break;
      }
      const auto scheduler = make_scheduler(kind, config);
      ScheduleAuditor auditor{*scheduler, {.fatal = false}};
      CheckedCore core{*scheduler, auditor, requeue};
      const SimulationResult result =
          EngineReplay<CheckedCore>{trace, core,
                                    failures.empty() ? nullptr : &failures}
              .run();
      EXPECT_TRUE(auditor.ok()) << auditor.violations().front().to_string();
      // A correct scheduler never sends the auditor to its rebuild.
      EXPECT_EQ(auditor.reseeds(), 0u);
      if (scheduler->audit_hooks().profile) {
        EXPECT_GT(core.compared(), trace.size());
      }
      if (!failures.empty()) {
        EXPECT_GT(result.kills, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace bfsim::core
