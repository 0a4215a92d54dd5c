#include "core/slack_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/conservative_scheduler.hpp"
#include "core/simulation.hpp"
#include "sim/event_queue.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using test::JobSpec;
using test::make_trace;
using test::start_times;

SimulationResult run(const Trace& trace, int procs, double slack,
                     PriorityPolicy priority = PriorityPolicy::Fcfs) {
  SlackScheduler scheduler{SchedulerConfig{procs, priority}, slack};
  return run_simulation(trace, scheduler, {.validate = true});
}

Job make_job(JobId id, sim::Time submit, sim::Time estimate, int procs) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = estimate;
  j.estimate = estimate;
  j.procs = procs;
  return j;
}

TEST(SlackScheduler, RejectsNegativeSlack) {
  EXPECT_THROW(
      (SlackScheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}, -0.5}),
      std::invalid_argument);
}

TEST(SlackScheduler, ZeroSlackMatchesConservativeOnExactEstimates) {
  // Exact estimates mean no early completion, so compression never
  // moves a reservation earlier than the arrival anchor its deadline
  // was fixed from: with no slack nobody can be displaced, and slack
  // places every job where conservative does. Under overestimates the
  // two part ways -- compression opens a gap between reservation and
  // deadline, which a later arrival may displace the job into.
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Trace trace = test::random_trace(400, 12, seed, false);
    const SchedulerConfig config{12, PriorityPolicy::Fcfs};
    ConservativeScheduler cons{config};
    const auto a = run_simulation(trace, cons);
    SlackScheduler slack{config, 0.0};
    const auto b = run_simulation(trace, slack);
    EXPECT_EQ(start_times(a), start_times(b)) << "seed " << seed;
  }
}

TEST(SlackScheduler, DisplacementWithinSlack) {
  // J1 (whole machine, est 100) is guaranteed t=100 with one estimate of
  // slack (deadline 200). The later-arriving short J2 may displace it.
  SlackScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}, 1.0};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 100, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  EXPECT_EQ(scheduler.deadline_of(1), 200);
  // J2: 2 procs, 90 s -- fits beside nothing now (J0 holds all 4), so no
  // displacement is even needed at t=2... it must wait. Make it arrive
  // when J0 is done and J1 is about to start.
  scheduler.job_finished(0, 100);
  const auto started = scheduler.select_starts(100);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0].id, 1u);
  // Now a 4-proc 50 s job arrives at t=110; J1 runs until 200, nothing
  // is queued: it anchors at 200 (no displacement possible of running
  // jobs).
  scheduler.job_submitted(make_job(2, 110, 50, 4), 110);
  EXPECT_EQ(scheduler.reservation_of(2), 200);
}

TEST(SlackScheduler, ArrivalDisplacesQueuedReservation) {
  // Machine 4. J0 runs [0, 100) on 2 procs. J1 (4 procs, est 50) is
  // reserved [100, 150), slack factor 2 -> deadline 200. J2 (2 procs,
  // est 120) arrives at t=2: conservative would anchor it at 150, but
  // displacing J1 to 122 (<= deadline) lets J2 start immediately.
  SlackScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}, 2.0};
  scheduler.job_submitted(make_job(0, 0, 100, 2), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  scheduler.job_submitted(make_job(2, 2, 120, 2), 2);
  EXPECT_EQ(scheduler.reservation_of(2), 2);    // displaced its way in
  EXPECT_EQ(scheduler.reservation_of(1), 122);  // pushed, within slack
  EXPECT_EQ(scheduler.displacements(), 1u);
  const auto started = scheduler.select_starts(2);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0].id, 2u);
}

TEST(SlackScheduler, DisplacementDeniedWhenSlackExhausted) {
  // Same geometry but slack 0.1 -> J1's deadline is 105; pushing it to
  // 122 is not allowed, so J2 takes the conservative anchor.
  SlackScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}, 0.1};
  scheduler.job_submitted(make_job(0, 0, 100, 2), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  scheduler.job_submitted(make_job(2, 2, 120, 2), 2);
  EXPECT_EQ(scheduler.reservation_of(1), 100);  // untouched
  EXPECT_EQ(scheduler.reservation_of(2), 150);  // behind J1
  EXPECT_EQ(scheduler.displacements(), 0u);
}

TEST(SlackScheduler, DeadlinesAreNeverViolated) {
  // Drive random traces manually, record each job's deadline at arrival
  // and assert its start never exceeds it -- the scheduler's core
  // guarantee, under every priority policy and estimate accuracy.
  for (const auto priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor}) {
    for (const bool overestimate : {false, true}) {
      const Trace trace = test::random_trace(400, 16, 77, overestimate);
      SlackScheduler scheduler{SchedulerConfig{16, priority}, 1.5};
      std::vector<sim::Time> deadline(trace.size(), sim::kNoTime);
      std::vector<sim::Time> started(trace.size(), sim::kNoTime);
      sim::EventQueue<JobId> events;
      for (const Job& job : trace) events.push(job.submit, 1, job.id);
      while (!events.empty()) {
        const sim::Time now = events.top().time;
        while (!events.empty() && events.top().time == now) {
          const auto event = events.pop();
          if (event.priority_class() == 0) {
            scheduler.job_finished(event.payload, now);
          } else {
            scheduler.job_submitted(trace[event.payload], now);
            deadline[event.payload] = scheduler.deadline_of(event.payload);
          }
        }
        for (const Job& job : scheduler.select_starts(now)) {
          started[job.id] = now;
          events.push(now + std::min(job.runtime, job.estimate), 0, job.id);
        }
      }
      for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_NE(started[i], sim::kNoTime);
        EXPECT_LE(started[i], deadline[i])
            << "job " << i << " " << to_string(priority);
      }
    }
  }
}

TEST(SlackScheduler, SlackTradesWorstCaseForMeanUnderSjf) {
  // Busy trace with overestimates: more slack -> better packing (lower
  // mean wait) but weaker guarantees (no better worst case).
  const Trace trace = test::random_trace(600, 12, 41, true);
  const auto tight = run(trace, 12, 0.0, PriorityPolicy::Sjf);
  const auto loose = run(trace, 12, 10.0, PriorityPolicy::Sjf);
  double tight_wait = 0, loose_wait = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    tight_wait += static_cast<double>(tight.outcomes[i].wait());
    loose_wait += static_cast<double>(loose.outcomes[i].wait());
  }
  EXPECT_LT(loose_wait, tight_wait);
}

TEST(SlackScheduler, NameEncodesSlack) {
  const SlackScheduler scheduler{SchedulerConfig{8, PriorityPolicy::Sjf},
                                 2.5};
  EXPECT_EQ(scheduler.name(), "slack2.5-sjf");
  EXPECT_DOUBLE_EQ(scheduler.slack_factor(), 2.5);
}

TEST(SlackScheduler, FactoryBuildsWithExtras) {
  SchedulerExtras extras;
  extras.slack_factor = 1.0;
  const auto scheduler = make_scheduler(
      SchedulerKind::Slack, SchedulerConfig{8, PriorityPolicy::Fcfs}, extras);
  EXPECT_EQ(scheduler->name(), "slack1.0-fcfs");
}

}  // namespace
}  // namespace bfsim::core
