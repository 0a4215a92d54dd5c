// Unit tests for the decision-core seam itself: the incremental event
// API, the lifecycle contract (every DecisionError fires *before* the
// scheduler is touched, so the core stays serviceable), the pass/skip
// accounting, and the wake-up discipline. The differential suites prove
// the seam reproduces run_simulation; this file pins the contract a
// front can rely on when its event source is hostile.
#include <gtest/gtest.h>

#include <memory>

#include "core/decision_core.hpp"
#include "core/scheduler.hpp"

namespace bfsim::core {
namespace {

Job make_job(JobId id, Time submit, Time estimate, int procs) {
  Job job;
  job.id = id;
  job.submit = submit;
  job.runtime = estimate;
  job.estimate = estimate;
  job.procs = procs;
  return job;
}

class DecisionCoreTest : public ::testing::Test {
 protected:
  DecisionCoreTest()
      : scheduler_(make_scheduler(SchedulerKind::Easy,
                                  SchedulerConfig{8, PriorityPolicy::Fcfs})),
        core_(*scheduler_) {}

  std::unique_ptr<Scheduler> scheduler_;
  DecisionCore core_;
};

TEST_F(DecisionCoreTest, SubmitAndStartLifecycle) {
  EXPECT_EQ(core_.phase(0), JobPhase::kUnseen);
  core_.on_submit(make_job(0, 0, 100, 4), 0);
  EXPECT_EQ(core_.phase(0), JobPhase::kQueued);
  EXPECT_EQ(core_.queued(), 1u);
  const CycleDecision decision = core_.end_cycle(0);
  EXPECT_TRUE(decision.pass_ran);
  ASSERT_EQ(decision.starts.size(), 1u);
  EXPECT_EQ(decision.starts[0], 0u);
  EXPECT_EQ(core_.phase(0), JobPhase::kRunning);
  EXPECT_EQ(core_.queued(), 0u);
  EXPECT_EQ(core_.running(), 1u);
  core_.on_finish(0, 100);
  EXPECT_EQ(core_.phase(0), JobPhase::kFinished);
  EXPECT_EQ(core_.running(), 0u);
  EXPECT_EQ(core_.stats().events, 2u);
}

TEST_F(DecisionCoreTest, TimeMustNotRunBackwards) {
  core_.on_submit(make_job(0, 100, 10, 1), 100);
  EXPECT_THROW(core_.on_submit(make_job(1, 99, 10, 1), 99), DecisionError);
  // The guard fired before any mutation: job 1 is unseen, and the core
  // keeps serving at valid times.
  EXPECT_EQ(core_.phase(1), JobPhase::kUnseen);
  EXPECT_NO_THROW(core_.on_submit(make_job(1, 100, 10, 1), 100));
}

TEST_F(DecisionCoreTest, RejectsMalformedSubmissions) {
  // Duplicate submit.
  core_.on_submit(make_job(0, 0, 10, 1), 0);
  EXPECT_THROW(core_.on_submit(make_job(0, 0, 10, 1), 0), DecisionError);
  // Estimate below one.
  EXPECT_THROW(core_.on_submit(make_job(1, 0, 0, 1), 0), DecisionError);
  // Wider than the machine.
  EXPECT_THROW(core_.on_submit(make_job(1, 0, 10, 9), 0), DecisionError);
  // Submit-time mismatch: an arrival is an event at its own instant.
  EXPECT_THROW(core_.on_submit(make_job(1, 5, 10, 1), 0), DecisionError);
  // Hostile id: must not allocate a phase table entry per 2^60.
  EXPECT_THROW(core_.on_submit(make_job(kMaxTrackedJobs, 0, 10, 1), 0),
               DecisionError);
  // None of it perturbed the queue.
  EXPECT_EQ(core_.queued(), 1u);
  EXPECT_EQ(core_.stats().events, 1u);
}

TEST_F(DecisionCoreTest, FinishRequiresARunningJob) {
  EXPECT_THROW(core_.on_finish(0, 0), DecisionError);
  core_.on_submit(make_job(0, 0, 10, 1), 0);
  // Queued but not started: still not finishable.
  EXPECT_THROW(core_.on_finish(0, 0), DecisionError);
  (void)core_.end_cycle(0);
  EXPECT_NO_THROW(core_.on_finish(0, 10));
  // And not twice.
  EXPECT_THROW(core_.on_finish(0, 10), DecisionError);
}

TEST_F(DecisionCoreTest, CancelContract) {
  EXPECT_THROW(core_.on_cancel(0, 0), DecisionError);  // never submitted
  core_.on_submit(make_job(0, 0, 10, 8), 0);
  core_.on_submit(make_job(1, 0, 10, 8), 0);
  (void)core_.end_cycle(0);  // job 0 starts; job 1 waits
  core_.on_cancel(1, 5);     // queued: withdrawn for good
  EXPECT_EQ(core_.phase(1), JobPhase::kCancelled);
  EXPECT_EQ(core_.queued(), 0u);
  EXPECT_THROW(core_.on_cancel(1, 5), DecisionError);  // cancelled twice
  // Cancelling a running job is a scheduler no-op but legal input.
  EXPECT_NO_THROW(core_.on_cancel(0, 6));
  EXPECT_EQ(core_.phase(0), JobPhase::kRunning);
}

TEST_F(DecisionCoreTest, CancelOfARunningJobStillForcesAPass) {
  // No hook can vouch the batch is a no-op (clock-driven policies can
  // surface starts from time alone), so the cycle must run a pass.
  core_.on_submit(make_job(0, 0, 10, 8), 0);
  (void)core_.end_cycle(0);
  core_.on_cancel(0, 5);
  const CycleDecision decision = core_.end_cycle(5);
  EXPECT_TRUE(decision.pass_ran);
}

TEST_F(DecisionCoreTest, NoOpBatchesAreSkippedAndCounted) {
  core_.on_submit(make_job(0, 0, 100, 8), 0);  // fills the machine
  core_.on_submit(make_job(1, 0, 50, 8), 0);   // must wait behind it
  (void)core_.end_cycle(0);
  // A submit that provably cannot start (machine full, EASY cannot
  // backfill it) lets the scheduler hooks veto the pass.
  core_.on_submit(make_job(2, 10, 50, 8), 10);
  const CycleDecision decision = core_.end_cycle(10);
  EXPECT_FALSE(decision.pass_ran);
  EXPECT_EQ(decision.starts.size(), 0u);
  EXPECT_EQ(core_.stats().passes_skipped, 1u);
}

TEST_F(DecisionCoreTest, StaleWakeIsACountedNoOp) {
  core_.on_submit(make_job(0, 0, 100, 1), 0);
  (void)core_.end_cycle(0);
  // A wake at an instant where no reservation is due: the cycle re-asks
  // the scheduler, learns nothing is due, and skips.
  core_.on_wake(10);
  const CycleDecision decision = core_.end_cycle(10);
  EXPECT_FALSE(decision.pass_ran);
  EXPECT_EQ(core_.stats().wakeups, 1u);
}

TEST_F(DecisionCoreTest, ErrorsLeaveTheCoreServiceable) {
  // A front that quarantines DecisionErrors must be able to keep using
  // the core: run a small legitimate schedule after a barrage of
  // contract violations and check it completes coherently.
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(core_.on_finish(99, 0), DecisionError);
    EXPECT_THROW(core_.on_cancel(98, 0), DecisionError);
    EXPECT_THROW(core_.on_submit(make_job(0, 5, 10, 1), 0), DecisionError);
  }
  core_.on_submit(make_job(0, 0, 10, 4), 0);
  const CycleDecision first = core_.end_cycle(0);
  ASSERT_EQ(first.starts.size(), 1u);
  core_.on_finish(0, 10);
  const CycleDecision second = core_.end_cycle(10);
  EXPECT_EQ(second.starts.size(), 0u);
  EXPECT_EQ(core_.stats().events, 2u);
}

TEST_F(DecisionCoreTest, StatsTrackQueueDepth) {
  core_.on_submit(make_job(0, 0, 100, 8), 0);
  (void)core_.end_cycle(0);
  core_.on_submit(make_job(1, 1, 10, 1), 1);
  core_.on_submit(make_job(2, 1, 10, 8), 1);
  (void)core_.end_cycle(1);
  EXPECT_EQ(core_.stats().max_queue, 2u);
}

TEST(DecisionCoreWakeups, ConservativeReportsItsReservation) {
  const auto scheduler = make_scheduler(
      SchedulerKind::Conservative, SchedulerConfig{4, PriorityPolicy::Fcfs});
  DecisionCore core{*scheduler};
  core.on_submit(make_job(0, 0, 100, 4), 0);
  (void)core.end_cycle(0);
  core.on_submit(make_job(1, 1, 50, 4), 1);
  const CycleDecision blocked = core.end_cycle(1);
  EXPECT_EQ(blocked.starts.size(), 0u);
  // Job 1's reservation sits at job 0's estimated end.
  EXPECT_EQ(blocked.next_wakeup, 100);
}

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::Fcfs,         SchedulerKind::Easy,
    SchedulerKind::Conservative, SchedulerKind::KReservation,
    SchedulerKind::Selective,    SchedulerKind::Slack,
    SchedulerKind::Plan};

TEST(DecisionCoreOverdue, EveryHookRefusesAnInstantPastARunningJobsEnd) {
  // A 4-proc machine (plus 2 buffer GB, so a buffer-only outage can be
  // active) whose one job, estimated to end at 10, never reports its
  // finish. At t=15 the profile schedulers plan the machine as free
  // while it is still busy: conservative, kres, slack and plan used to
  // throw a plain logic_error on the next start, and nobackfill, easy and
  // selective accepted the instant silently. Every hook now refuses it
  // before anything moves.
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    const auto scheduler = make_scheduler(
        kind, SchedulerConfig{4, PriorityPolicy::Sjf, /*burst_buffer=*/2});
    DecisionCore core{*scheduler};
    core.on_node_down({.id = 0, .down_at = 0, .repair_at = 15, .bb = 1}, 0);
    core.on_submit(make_job(0, 0, 10, 4), 0);
    ASSERT_EQ(core.end_cycle(0).starts.size(), 1u);
    EXPECT_EQ(core.overdue_job(10, false), workload::kInvalidJob);
    EXPECT_EQ(core.overdue_job(10, true), 0u);
    EXPECT_EQ(core.overdue_job(15, false), 0u);

    EXPECT_THROW(core.on_finish(0, 15), DecisionError);
    EXPECT_THROW(core.on_node_up(0, 15), DecisionError);
    EXPECT_THROW(core.on_node_down(
                     {.id = 1, .down_at = 15, .repair_at = 20, .procs = 1},
                     15),
                 DecisionError);
    EXPECT_THROW(core.on_submit(make_job(1, 15, 10, 4), 15), DecisionError);
    EXPECT_THROW(core.on_cancel(0, 15), DecisionError);
    EXPECT_THROW(core.on_wake(15), DecisionError);
    EXPECT_THROW((void)core.end_cycle(15), DecisionError);
    // Nothing moved: not the clock, the job table or the outages.
    EXPECT_EQ(core.phase(0), JobPhase::kRunning);
    EXPECT_EQ(core.phase(1), JobPhase::kUnseen);
    EXPECT_EQ(core.running(), 1u);
    EXPECT_EQ(core.stats().events, 1u);
    EXPECT_EQ(core.stats().wakeups, 0u);
    EXPECT_EQ(core.stats().outages, 1u);
    EXPECT_EQ(core.outage_repair_at(0), 15);

    // The finish, reported by its estimated end, repairs the stream.
    core.on_finish(0, 10);
    (void)core.end_cycle(10);
    EXPECT_EQ(core.overdue_job(15, true), workload::kInvalidJob);
    core.on_node_up(0, 15);
    core.on_submit(make_job(1, 15, 10, 4), 15);
    const CycleDecision decision = core.end_cycle(15);
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0], 1u);
  }
}

TEST(DecisionCoreOverdue, EndCycleRefusesAnEstimatedEndAtItsInstant) {
  // The same job, with the next frame at its estimated end. Events at
  // t=10 are on time (its finish may still come in this batch), but
  // closing the cycle without it would let the profile schedulers start
  // a job on processors the machine still counts busy.
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    const auto scheduler =
        make_scheduler(kind, SchedulerConfig{4, PriorityPolicy::Sjf});
    DecisionCore core{*scheduler};
    core.on_submit(make_job(0, 0, 10, 4), 0);
    ASSERT_EQ(core.end_cycle(0).starts.size(), 1u);
    core.on_submit(make_job(1, 10, 10, 4), 10);
    EXPECT_THROW((void)core.end_cycle(10), DecisionError);
    EXPECT_EQ(core.phase(0), JobPhase::kRunning);
    EXPECT_EQ(core.phase(1), JobPhase::kQueued);
    EXPECT_EQ(core.stats().passes, 1u);

    core.on_finish(0, 10);
    const CycleDecision decision = core.end_cycle(10);
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0], 1u);
  }
}

TEST(DecisionCoreOverdue, EveryHookRefusesAnInstantPastAnOutagesRepair) {
  // An outage downs the whole machine from 0 to 10 with a job waiting.
  // The profile schedulers free the outage's capacity at its repair
  // instant, while the machine gets it back only with the repair event,
  // so an instant after 10 without it (or a cycle closing at 10) is
  // refused like a missing finish.
  for (const SchedulerKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    const auto scheduler =
        make_scheduler(kind, SchedulerConfig{4, PriorityPolicy::Fcfs});
    DecisionCore core{*scheduler};
    core.on_node_down({.id = 0, .down_at = 0, .repair_at = 10, .procs = 4},
                      0);
    core.on_submit(make_job(0, 0, 10, 4), 0);
    ASSERT_TRUE(core.end_cycle(0).starts.empty());
    EXPECT_EQ(core.overdue_outage(10, false), nullptr);
    ASSERT_NE(core.overdue_outage(10, true), nullptr);
    EXPECT_EQ(core.overdue_outage(10, true)->id, 0u);

    EXPECT_THROW(core.on_wake(12), DecisionError);
    EXPECT_THROW(core.on_submit(make_job(1, 12, 10, 1), 12), DecisionError);
    EXPECT_THROW(core.on_node_up(0, 12), DecisionError);
    EXPECT_THROW((void)core.end_cycle(12), DecisionError);
    core.on_wake(10);
    EXPECT_THROW((void)core.end_cycle(10), DecisionError);
    EXPECT_EQ(core.outage_repair_at(0), 10);
    EXPECT_EQ(core.down_procs(), 4);
    EXPECT_EQ(core.phase(1), JobPhase::kUnseen);

    core.on_node_up(0, 10);
    const CycleDecision decision = core.end_cycle(10);
    ASSERT_EQ(decision.starts.size(), 1u);
    EXPECT_EQ(decision.starts[0], 0u);
  }
}

TEST(DecisionCoreOverdue, AFinishAtTheEstimatedEndIsOnTime) {
  const auto scheduler = make_scheduler(
      SchedulerKind::Conservative, SchedulerConfig{4, PriorityPolicy::Fcfs});
  DecisionCore core{*scheduler};
  core.on_submit(make_job(0, 0, 10, 4), 0);
  (void)core.end_cycle(0);
  EXPECT_EQ(core.overdue_job(10, false), workload::kInvalidJob);
  EXPECT_NO_THROW(core.on_finish(0, 10));
  EXPECT_NO_THROW((void)core.end_cycle(10));
  // An early finish leaves the deadline bound at its estimated end; it
  // never counts.
  core.on_submit(make_job(1, 12, 100, 4), 12);
  (void)core.end_cycle(12);
  core.on_finish(1, 20);
  EXPECT_NO_THROW((void)core.end_cycle(20));
  EXPECT_EQ(core.overdue_job(500, true), workload::kInvalidJob);
  EXPECT_NO_THROW((void)core.end_cycle(500));
}

}  // namespace
}  // namespace bfsim::core
