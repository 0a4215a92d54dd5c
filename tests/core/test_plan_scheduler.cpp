// The plan-based scheduler (Kopanski & Rzadca): every queued job holds
// the start the greedy list schedule of the whole queue gives it, so
// guarantees float to the current best packing instead of being pinned
// forever like conservative backfilling's. SchedulerKind::Plan builds
// PlanScheduler, which keeps the plan between events. These tests pin
// the schedule-level semantics that make it distinct -- early finishes
// pull starts earlier, arrivals may push them later, joint-axis packing
// -- run it through the full simulator with the auditor fatal, and hold
// the kept plan to the stateless per-pass replan it must equal.
#include <gtest/gtest.h>

#include "core/kres_scheduler.hpp"
#include "core/plan_scheduler.hpp"
#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"
#include "workload/transforms.hpp"

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

/// Every observable of a replay, except the pass accounting: the kept
/// plan runs its passes only when a planned start comes due.
void expect_same_schedule(const SimulationResult& kept,
                          const SimulationResult& stateless) {
  ASSERT_EQ(kept.outcomes.size(), stateless.outcomes.size());
  for (std::size_t i = 0; i < kept.outcomes.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    const JobOutcome& a = kept.outcomes[i];
    const JobOutcome& b = stateless.outcomes[i];
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.killed, b.killed);
    EXPECT_EQ(a.cancelled, b.cancelled);
    EXPECT_EQ(a.requeues, b.requeues);
    EXPECT_EQ(a.first_start, b.first_start);
    EXPECT_EQ(a.requeue_wait, b.requeue_wait);
  }
  EXPECT_EQ(kept.makespan, stateless.makespan);
  EXPECT_EQ(kept.events, stateless.events);
  EXPECT_EQ(kept.max_queue, stateless.max_queue);
  EXPECT_EQ(kept.outages, stateless.outages);
  EXPECT_EQ(kept.repairs, stateless.repairs);
  EXPECT_EQ(kept.kills, stateless.kills);
  EXPECT_EQ(kept.scheduler_name, stateless.scheduler_name);
}

TEST(PlanScheduler, KeptPlanEqualsTheStatelessReplan) {
  // The kept plan against its definition: KReservationScheduler at
  // unbounded depth re-anchors the whole queue at every pass. Inexact
  // estimates drive early-finish replans, SJF and XFactor mid-queue
  // arrivals and order repairs, cancels mid-queue replans, and outages
  // kill running jobs whose requeued runs re-enter mid-queue (they keep
  // their submit time) -- with burst buffers on the contended cells.
  constexpr int kBurstBuffer = 64;
  const exp::EstimateSpec regimes[] = {
      {.regime = exp::EstimateRegime::Exact},
      {.regime = exp::EstimateRegime::Systematic, .factor = 2.0},
      {.regime = exp::EstimateRegime::Actual},
  };
  std::uint64_t kills = 0;
  std::uint64_t cancels = 0;
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const exp::EstimateSpec& estimates : regimes) {
      exp::Scenario scenario;
      scenario.trace = exp::TraceKind::Sdsc;
      scenario.jobs = 250;
      scenario.estimates = estimates;
      scenario.seed = seed;
      const Trace base = exp::build_workload(scenario);
      const int procs = scenario.procs();
      for (const bool contended : {false, true}) {
        Trace trace = base;
        sim::FailureTrace failures;
        SchedulerConfig config{procs};
        if (contended) {
          sim::Rng rng{seed * 977 + 13};
          workload::apply_cancellations(trace, 0.15, /*patience=*/2.0, rng);
          assign_random_bb(trace, 24, seed ^ 0x5bd1);
          config.burst_buffer = kBurstBuffer;
          failures = sim::generate_failures(
              {.mean_uptime = 6.0 * sim::kHour,
               .mean_repair = 1.0 * sim::kHour,
               .max_procs_lost = procs / 4,
               .max_bb_lost = 16},
              procs, kBurstBuffer, seed * 31 + 7);
        }
        for (const PriorityPolicy priority : kPaperPolicies) {
          SCOPED_TRACE(to_string(priority) + " " + estimates.label() +
                       " seed=" + std::to_string(seed) +
                       (contended ? " contended" : ""));
          config.priority = priority;
          const SimulationOptions options{
              .validate = true, .audit = true, .failures = &failures};
          const auto kept = make_plan(config);
          KReservationScheduler stateless{config, kUnboundedReservationDepth};
          const SimulationResult a = run_simulation(trace, *kept, options);
          const SimulationResult b = run_simulation(trace, stateless, options);
          expect_same_schedule(a, b);
          kills += a.kills;
          for (const JobOutcome& outcome : a.outcomes)
            cancels += outcome.cancelled ? 1 : 0;
        }
      }
    }
  }
  // The grid must reach the paths it exists for.
  EXPECT_GT(kills, 0u);
  EXPECT_GT(cancels, 0u);
}

TEST(PlanScheduler, RepairAloneReplansAReorderedXFactorQueue) {
  // A repair that is the only event at its instant frees nothing the
  // plan did not know about, but under XFactor the order has moved on
  // since the last event: the narrow job B overtook the wide job A at
  // t=50, so at the repair B fits into the returned capacity, which A's
  // planned start blocked under the old order. The stateless replan
  // starts B at the repair; so must the kept plan.
  const SchedulerConfig config{4, PriorityPolicy::XFactor};
  sim::Outage outage;
  outage.id = 0;
  outage.down_at = 0;
  outage.repair_at = 100;
  outage.procs = 2;
  const Job running = make_job(0, 0, 150, 2);
  const Job wide = make_job(1, 0, 100, 4);
  const Job narrow = make_job(2, 10, 80, 2);
  PlanScheduler kept{config};
  KReservationScheduler stateless{config, kUnboundedReservationDepth};
  for (Scheduler* scheduler : {static_cast<Scheduler*>(&kept),
                               static_cast<Scheduler*>(&stateless)}) {
    SCOPED_TRACE(scheduler->name());
    (void)scheduler->node_down(outage, 0);
    (void)scheduler->job_submitted(running, 0);
    (void)scheduler->job_submitted(wide, 0);
    ASSERT_EQ(scheduler->select_starts(0).size(), 1u);  // `running`
    (void)scheduler->job_submitted(narrow, 10);
    EXPECT_TRUE(scheduler->node_up(outage, 100));
    const auto starts = scheduler->select_starts(100);
    ASSERT_EQ(starts.size(), 1u);
    EXPECT_EQ(starts[0].id, narrow.id);
  }
  EXPECT_EQ(kept.reservation_of(wide.id), 180);
}

TEST(PlanScheduler, ExactFcfsReplansOnlyTheNewcomer) {
  // Exact estimates mean on-time finishes only, and FCFS arrivals sort
  // last: each submit anchors the newcomer and nothing else.
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Ctc;
  scenario.jobs = 500;
  const Trace trace = exp::build_workload(scenario);
  PlanScheduler plan{SchedulerConfig{scenario.procs(), PriorityPolicy::Fcfs}};
  (void)run_simulation(trace, plan);
  EXPECT_EQ(plan.reanchored(), trace.size());
}

TEST(PlanScheduler, RejectsNegativeBurstBufferCapacity) {
  EXPECT_THROW((void)make_plan(SchedulerConfig{8, PriorityPolicy::Fcfs, -1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bfsim::core
