// The plan-based scheduler (Kopanski & Rzadca): the whole queue is
// re-anchored in priority order at every pass, so guarantees float to
// the current best packing instead of being pinned forever like
// conservative backfilling's. SchedulerKind::Plan builds
// KReservationScheduler at unbounded reservation depth. These tests pin
// the schedule-level semantics that make it distinct -- early finishes
// pull starts earlier, arrivals may push them later, joint-axis packing
// -- and then run it through the full simulator with the auditor fatal.
#include <gtest/gtest.h>

#include "core/kres_scheduler.hpp"
#include "core/simulation.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using test::assign_random_bb;
using test::make_trace;
using test::random_trace;
using test::start_times;

Job make_job(JobId id, sim::Time submit, sim::Time estimate, int procs) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = estimate;
  j.estimate = estimate;
  j.procs = procs;
  return j;
}

std::unique_ptr<Scheduler> make_plan(SchedulerConfig config) {
  return make_scheduler(SchedulerKind::Plan, config);
}

SimulationResult run(const Trace& trace, SchedulerConfig config) {
  const auto scheduler = make_plan(config);
  return run_simulation(trace, *scheduler, {.validate = true, .audit = true});
}

TEST(PlanScheduler, IdleMachineStartsAFittingJobImmediately) {
  const auto scheduler = make_plan(SchedulerConfig{4, PriorityPolicy::Fcfs});
  EXPECT_TRUE(scheduler->job_submitted(make_job(0, 0, 100, 4), 0));
  const auto starts = scheduler->select_starts(0);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].id, 0u);
}

TEST(PlanScheduler, ReplanMovesGuaranteesEarlierAfterAnEarlyFinish) {
  // The plan is rebuilt from the true state, so a head that finishes
  // early pulls the next start up to the finish instant.
  const auto scheduler = make_plan(SchedulerConfig{4, PriorityPolicy::Fcfs});
  Job head = make_job(0, 0, 100, 4);
  head.runtime = 10;  // finishes early
  scheduler->job_submitted(head, 0);
  (void)scheduler->select_starts(0);
  EXPECT_FALSE(scheduler->job_submitted(make_job(1, 1, 50, 4), 1));
  EXPECT_TRUE(scheduler->job_finished(0, 10));
  const auto starts = scheduler->select_starts(10);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].id, 1u);
}

TEST(PlanScheduler, ReplanMayLegallyMoveAPlannedStartLater) {
  // Under SJF a shorter late arrival outranks a queued job at the next
  // replan, pushing the queued job's start later than conservative's
  // arrival-time guarantee -- the behavior the monotone-reservation
  // audit hook would flag, and why the plan scheduler declares it off.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 4},
      {.submit = 1, .runtime = 80, .procs = 4},
      {.submit = 2, .runtime = 10, .procs = 4},
  });
  const SchedulerConfig config{4, PriorityPolicy::Sjf};
  EXPECT_EQ(start_times(run(trace, config)),
            (std::vector<sim::Time>{0, 110, 100}));
  const auto conservative = make_scheduler(SchedulerKind::Conservative, config);
  EXPECT_EQ(start_times(run_simulation(trace, *conservative)),
            (std::vector<sim::Time>{0, 100, 180}));
  EXPECT_FALSE(make_plan(config)->audit_hooks().monotone_reservations);
}

TEST(PlanScheduler, PacksBothResourceAxesJointly) {
  // procs fit now, but the buffer is held by the running job -- the
  // plan must hold the bb-hungry job until the release instant, while a
  // buffer-free job of the same width backfills immediately.
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 2, .bb = 100},
      {.submit = 1, .runtime = 50, .procs = 2, .bb = 50},
      {.submit = 2, .runtime = 50, .procs = 2, .bb = 0},
  });
  const auto result = run(
      trace, SchedulerConfig{8, PriorityPolicy::Fcfs, /*burst_buffer=*/100});
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 100, 2}));
}

TEST(PlanScheduler, SimultaneousStartsCommitInPriorityOrder) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 4},
      {.submit = 1, .runtime = 50, .procs = 2},
      {.submit = 2, .runtime = 50, .procs = 2},
  });
  const auto scheduler = make_plan(SchedulerConfig{4, PriorityPolicy::Fcfs});
  scheduler->job_submitted(trace[0], 0);
  (void)scheduler->select_starts(0);
  scheduler->job_submitted(trace[1], 1);
  scheduler->job_submitted(trace[2], 2);
  scheduler->job_finished(0, 100);
  const auto starts = scheduler->select_starts(100);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].id, 1u);
  EXPECT_EQ(starts[1].id, 2u);
  EXPECT_EQ(start_times(run(trace, SchedulerConfig{4, PriorityPolicy::Fcfs})),
            (std::vector<sim::Time>{0, 100, 100}));
}

TEST(PlanScheduler, FullSimulationStaysValidAndAuditClean) {
  for (const std::uint64_t seed : {401u, 402u, 403u}) {
    const Trace trace = random_trace(150, 16, seed, /*overestimate=*/true);
    const auto result = run(trace, SchedulerConfig{16, PriorityPolicy::Fcfs});
    EXPECT_EQ(result.scheduler_name, "plan-fcfs");
  }
}

TEST(PlanScheduler, FullSimulationWithBurstBuffersStaysValidAndAuditClean) {
  for (const std::uint64_t seed : {411u, 412u, 413u}) {
    Trace trace = random_trace(150, 16, seed, /*overestimate=*/true);
    assign_random_bb(trace, 64, seed ^ 0x9e37);
    (void)run(trace,
              SchedulerConfig{16, PriorityPolicy::Fcfs, /*burst_buffer=*/64});
  }
}

TEST(PlanScheduler, EveryPriorityPolicyRunsClean) {
  const Trace trace = random_trace(120, 8, 77, /*overestimate=*/true);
  for (const PriorityPolicy priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::Ljf,
        PriorityPolicy::XFactor}) {
    (void)run(trace, SchedulerConfig{8, priority});
  }
}

TEST(PlanScheduler, RegisteredWithTheFactoryAndKindStrings) {
  EXPECT_EQ(to_string(SchedulerKind::Plan), "plan");
  EXPECT_EQ(scheduler_kind_from_string("plan"), SchedulerKind::Plan);
  const auto scheduler = make_scheduler(
      SchedulerKind::Plan, SchedulerConfig{8, PriorityPolicy::Sjf}, {});
  EXPECT_EQ(scheduler->name(), "plan-sjf");
}

TEST(PlanScheduler, IsKReservationAtUnboundedDepth) {
  // The reservation depth is fixed: SchedulerExtras' depth knob belongs
  // to the kreservation kind and does not reach plan.
  const auto scheduler =
      make_scheduler(SchedulerKind::Plan, SchedulerConfig{8},
                     {.reservation_depth = 2});
  const auto* kres =
      dynamic_cast<const KReservationScheduler*>(scheduler.get());
  ASSERT_NE(kres, nullptr);
  EXPECT_EQ(kres->depth(), kUnboundedReservationDepth);
}

TEST(PlanScheduler, RejectsNegativeBurstBufferCapacity) {
  EXPECT_THROW((void)make_plan(SchedulerConfig{8, PriorityPolicy::Fcfs, -1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bfsim::core
