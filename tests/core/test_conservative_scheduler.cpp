#include "core/conservative_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "core/slack_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/failure.hpp"
#include "test_support.hpp"
#include "workload/estimates.hpp"
#include "workload/transforms.hpp"

namespace bfsim::core {
namespace {

using test::JobSpec;
using test::make_trace;
using test::start_times;

SimulationResult run(const Trace& trace, int procs,
                     PriorityPolicy priority = PriorityPolicy::Fcfs) {
  ConservativeScheduler scheduler{SchedulerConfig{procs, priority}};
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

TEST(ConservativeScheduler, EveryJobGetsAReservationOnArrival) {
  ConservativeScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  EXPECT_EQ(scheduler.reservation_of(0), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 50, 4), 1);
  EXPECT_EQ(scheduler.reservation_of(1), 100);
  scheduler.job_submitted(make_job(2, 2, 50, 4), 2);
  EXPECT_EQ(scheduler.reservation_of(2), 150);  // behind job 1's guarantee
  scheduler.job_submitted(make_job(3, 3, 99999, 2), 3);
  // A narrow job backfills into the hole beside the running job only if
  // it also clears both reservations; this one cannot, so it anchors
  // after everything.
  EXPECT_EQ(scheduler.reservation_of(3), 200);
}

TEST(ConservativeScheduler, BackfillsIntoHolesWithoutDelayingAnyone) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 100, .procs = 2},  // [0,100) on 2 procs
      {.submit = 1, .runtime = 100, .procs = 4},  // reserved [100,200)
      {.submit = 2, .runtime = 90, .procs = 2},   // fits [2,92): backfills
      {.submit = 3, .runtime = 150, .procs = 2},  // would hit the roof: 200
  });
  const auto result = run(trace, 4);
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 100, 2, 200}));
}

TEST(ConservativeScheduler, ReservationsActAsRoofs) {
  // The reservation of a *queued* job (not just the head) blocks a later
  // long job -- the "roof" effect that hurts Long-Narrow jobs under
  // conservative backfilling (paper Section 4.2).
  ConservativeScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 1000, 2), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 10, 4), 1);   // roof [1000,1010)
  scheduler.job_submitted(make_job(2, 2, 2000, 2), 2); // long narrow
  // Without job 1's roof, job 2 would start at t=2 beside job 0.
  EXPECT_EQ(scheduler.reservation_of(2), 1010);
}

TEST(ConservativeScheduler, EarlyCompletionCompressesReservations) {
  const Trace trace = make_trace({
      {.submit = 0, .runtime = 50, .procs = 4, .estimate = 100},  // ends early
      {.submit = 1, .runtime = 100, .procs = 4, .estimate = 100},
  });
  const auto result = run(trace, 4);
  // Job 1 was guaranteed t=100 but compression pulls it to t=50.
  EXPECT_EQ(start_times(result), (std::vector<sim::Time>{0, 50}));
}

TEST(ConservativeScheduler, CompressionFollowsPriorityOrder) {
  // After an early completion, queued jobs are re-anchored in priority
  // order -- the only place the priority policy matters (Section 4.1).
  const std::vector<JobSpec> specs{
      {.submit = 0, .runtime = 30, .procs = 4, .estimate = 100},
      {.submit = 1, .runtime = 100, .procs = 4, .estimate = 100},  // long
      {.submit = 2, .runtime = 10, .procs = 4, .estimate = 10},    // short
      {.submit = 3, .runtime = 10, .procs = 4, .estimate = 10},    // short
  };
  const Trace trace = make_trace(specs);
  const auto fcfs = run(trace, 4, PriorityPolicy::Fcfs);
  EXPECT_EQ(start_times(fcfs), (std::vector<sim::Time>{0, 30, 130, 140}));
  const auto sjf = run(trace, 4, PriorityPolicy::Sjf);
  // The short jobs grab the freed hole first under SJF.
  EXPECT_EQ(start_times(sjf), (std::vector<sim::Time>{0, 50, 30, 40}));
}

TEST(ConservativeScheduler, OnTimeCompletionChangesNothing) {
  // With exact estimates no new holes appear: reservations assigned at
  // arrival are final (the priority-equivalence mechanism).
  ConservativeScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Sjf}};
  scheduler.job_submitted(make_job(0, 0, 100, 4), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 200, 4), 1);
  scheduler.job_submitted(make_job(2, 2, 10, 4), 2);
  const sim::Time res1 = scheduler.reservation_of(1);
  const sim::Time res2 = scheduler.reservation_of(2);
  EXPECT_EQ(res1, 100);
  EXPECT_EQ(res2, 300);  // SJF cannot jump an existing guarantee
  scheduler.job_finished(0, 100);  // exactly on estimate
  EXPECT_EQ(scheduler.reservation_of(1), res1);
  EXPECT_EQ(scheduler.reservation_of(2), res2);
}

TEST(ConservativeScheduler, GuaranteeNeverWorsensAcrossEvents) {
  // Random trace with overestimates: track every job's reservation at
  // arrival and assert its actual start is never later.
  const Trace trace = test::random_trace(300, 16, 99, /*overestimate=*/true);
  ConservativeScheduler scheduler{SchedulerConfig{16, PriorityPolicy::Fcfs}};
  std::vector<sim::Time> guaranteed(trace.size(), sim::kNoTime);

  sim::EventQueue<JobId> events;
  for (const Job& job : trace) events.push(job.submit, 1, job.id);
  std::vector<sim::Time> started(trace.size(), sim::kNoTime);
  while (!events.empty()) {
    const sim::Time now = events.top().time;
    while (!events.empty() && events.top().time == now) {
      const auto event = events.pop();
      if (event.priority_class() == 0) {
        scheduler.job_finished(event.payload, now);
      } else {
        scheduler.job_submitted(trace[event.payload], now);
        guaranteed[event.payload] = scheduler.reservation_of(event.payload);
      }
    }
    for (const Job& job : scheduler.select_starts(now)) {
      started[job.id] = now;
      events.push(now + std::min(job.runtime, job.estimate), 0, job.id);
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_NE(started[i], sim::kNoTime) << "job " << i;
    EXPECT_LE(started[i], guaranteed[i]) << "job " << i;
  }
}

TEST(ConservativeScheduler, ProfileTailReturnsToFullyFree) {
  ConservativeScheduler scheduler{SchedulerConfig{8, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 8), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(1, 1, 100, 4), 1);
  EXPECT_NO_THROW(scheduler.profile().check_invariants());
  EXPECT_EQ(scheduler.profile().procs_free_at(100), 4);
  EXPECT_EQ(scheduler.profile().procs_free_at(200), 8);
}

TEST(ConservativeScheduler, RejectsJobWiderThanMachine) {
  // Too-wide jobs are rejected by the driver's trace validation before
  // any event reaches the scheduler.
  const Trace trace = make_trace({{.submit = 0, .runtime = 10, .procs = 9}});
  ConservativeScheduler scheduler{SchedulerConfig{8, PriorityPolicy::Fcfs}};
  EXPECT_THROW((void)run_simulation(trace, scheduler), std::invalid_argument);
}

TEST(ConservativeScheduler, CompressionCascadesWithinOneEvent) {
  // Regression: one priority-order pass over the queue is not a fixpoint.
  // A later-priority job that re-anchors earlier vacates its old slot,
  // which can unblock an *already visited* earlier-priority job; a
  // single-pass compress left that job's reservation stale until some
  // future event happened to re-run compression.
  //
  // Machine of 4. Two jobs start at t=0: job 0 (2 procs, est 100, really
  // finishes at 10) and job 1 (2 procs, est 40). Job 2 (3 procs, est 60)
  // cannot fit before their estimated ends and anchors at 100. Job 3
  // (2 procs, est 50) backfill-reserves [40,90) beside job 0 -- a
  // *later*-priority job holding an *earlier* reservation.
  ConservativeScheduler scheduler{SchedulerConfig{4, PriorityPolicy::Fcfs}};
  scheduler.job_submitted(make_job(0, 0, 100, 2), 0);
  scheduler.job_submitted(make_job(1, 0, 40, 2), 0);
  (void)scheduler.select_starts(0);
  scheduler.job_submitted(make_job(2, 1, 60, 3), 1);
  scheduler.job_submitted(make_job(3, 2, 50, 2), 2);
  ASSERT_EQ(scheduler.reservation_of(2), 100);
  ASSERT_EQ(scheduler.reservation_of(3), 40);

  // Job 0 finishes early at t=10, freeing 2 procs over [10,100). Pass 1
  // visits job 2 first: with job 3 still parked on [40,90) it can only
  // reach t=90. Job 3 then slides into the fresh hole at t=10, vacating
  // [40,90) -- job 2's true earliest anchor is now t=60, which only a
  // second pass can discover.
  scheduler.job_finished(0, 10);
  EXPECT_EQ(scheduler.reservation_of(3), 10);
  EXPECT_EQ(scheduler.reservation_of(2), 60);
  EXPECT_NO_THROW(scheduler.profile().check_invariants());

  // The repaired reservation is immediately startable: at t=10 job 3
  // begins next to the still-running job 1, and nothing throws the
  // "reservation in the past" error the stale state used to cause.
  const auto started = scheduler.select_starts(10);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(started[0].id, 3);
}

TEST(ConservativeScheduler, NameIncludesPriority) {
  const ConservativeScheduler scheduler{
      SchedulerConfig{8, PriorityPolicy::Sjf}};
  EXPECT_EQ(scheduler.name(), "conservative-sjf");
}

/// Forwards every hook to a conservative-family scheduler and, after
/// each, checks the fixpoint compression promises: no queued job has an
/// earlier anchor. job_killed is exempt: the outage's node_down follows
/// it within the same instant and repacks every guarantee.
class FixpointCheck final : public Scheduler {
 public:
  explicit FixpointCheck(ConservativeScheduler& inner) : inner_(inner) {}

  bool job_submitted(const Job& job, Time now) override {
    return checked(inner_.job_submitted(job, now), now);
  }
  bool job_finished(JobId id, Time now) override {
    return checked(inner_.job_finished(id, now), now);
  }
  bool job_cancelled(JobId id, Time now) override {
    return checked(inner_.job_cancelled(id, now), now);
  }
  bool job_killed(JobId id, Time now) override {
    return inner_.job_killed(id, now);
  }
  bool node_down(const sim::Outage& outage, Time now) override {
    return checked(inner_.node_down(outage, now), now);
  }
  bool node_up(const sim::Outage& outage, Time now) override {
    return checked(inner_.node_up(outage, now), now);
  }
  [[nodiscard]] Time next_wakeup() override { return inner_.next_wakeup(); }
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    inner_.select_starts(now, out);
    (void)checked(true, now);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const SchedulerConfig& config() const override {
    return inner_.config();
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return inner_.queued_count();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return inner_.running_count();
  }

  std::uint64_t checks = 0;

 private:
  bool checked(bool pass_needed, Time now) {
    for (const AuditReservation& r : inner_.audit_reservations()) {
      ++checks;
      const Time earlier = inner_.profile().earlier_anchor(
          r.procs, r.bb, r.estimate, now, r.start);
      EXPECT_EQ(earlier, sim::kNoTime)
          << inner_.name() << ": job " << r.id << " reserved at " << r.start
          << " could start at " << earlier << " (t=" << now << ")";
    }
    return pass_needed;
  }

  ConservativeScheduler& inner_;
};

TEST(ConservativeScheduler, CompressionLeavesAFixpointAfterEveryEvent) {
  // Compression skips jobs without probing them (reserved before the
  // hole, or wider than any capacity freed since they were anchored).
  // Hold every skip to the probe: after every event, no queued job of
  // conservative or slack may have an earlier anchor. Covers R=2 and
  // actual estimates, cancels, seeded outages with kill-requeue, and
  // burst buffers.
  constexpr int kProcs = 32;
  std::uint64_t skips = 0;
  for (const bool slack : {false, true})
    for (const bool actual : {false, true})
      for (const bool bb : {false, true})
        for (const bool outages : {false, true}) {
          const std::uint64_t seed = 7 + (actual ? 1 : 0) + (bb ? 2 : 0);
          Trace trace = test::random_trace(300, kProcs, seed, false);
          sim::Rng rng{seed};
          if (actual) {
            workload::apply_estimates(trace, workload::ActualEstimateModel{},
                                      rng);
          } else {
            for (Job& job : trace) job.estimate = 2 * job.runtime;
          }
          workload::apply_cancellations(trace, 0.1, 2.0 * sim::kHour, rng);
          SchedulerConfig config{kProcs, PriorityPolicy::Fcfs};
          if (bb) {
            test::assign_random_bb(trace, 24, seed);
            config.burst_buffer = 64;
          }
          const sim::FailureTrace failures = sim::generate_failures(
              {.mean_uptime = 3.0 * sim::kHour,
               .mean_repair = 1.0 * sim::kHour,
               .max_procs_lost = 8,
               .max_bb_lost = bb ? 16 : 0},
              kProcs, config.burst_buffer, seed);
          ConservativeScheduler conservative{config};
          SlackScheduler slack_scheduler{config, 2.0};
          ConservativeScheduler& inner =
              slack ? slack_scheduler : conservative;
          FixpointCheck checked{inner};
          const SimulationResult result = run_simulation(
              trace, checked,
              {.validate = true, .failures = outages ? &failures : nullptr});
          EXPECT_GT(checked.checks, 1000u) << inner.name();
          EXPECT_GT(inner.compression_moves(), 0u) << inner.name();
          if (outages) {
            EXPECT_GT(result.kills, 0u) << inner.name();
          }
          skips += inner.compression_skips();
        }
  EXPECT_GT(skips, 0u);
}

}  // namespace
}  // namespace bfsim::core
