// Mutation tests for the ScheduleAuditor: an auditor that cannot fail
// is worthless, so each test drives a deliberately broken scheduler
// shim through the real simulation loop and asserts the auditor reports
// the seeded violation with the correct structured diagnostic.
#include "core/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/conservative_scheduler.hpp"
#include "core/profile.hpp"
#include "core/simulation.hpp"
#include "sim/failure.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

using test::JobSpec;
using test::make_trace;

/// Minimal Scheduler with its own (bypassable) bookkeeping, so shims can
/// break rules SchedulerBase::commit_start would reject outright.
class ShimScheduler : public Scheduler {
 public:
  explicit ShimScheduler(SchedulerConfig config) : config_(config) {}

  // Shims request a pass on every event: the mutations under test rely
  // on select_starts running at every batch, as the historic driver did.
  bool job_submitted(const Job& job, Time) override {
    queue_.push_back(job);
    return true;
  }
  bool job_finished(JobId id, Time) override {
    const auto it =
        std::find_if(running_.begin(), running_.end(),
                     [id](const Job& job) { return job.id == id; });
    EXPECT_NE(it, running_.end()) << "shim finish without start";
    if (it != running_.end()) running_.erase(it);
    return true;
  }
  [[nodiscard]] std::string name() const override { return "shim"; }
  [[nodiscard]] const SchedulerConfig& config() const override {
    return config_;
  }
  [[nodiscard]] std::size_t queued_count() const override {
    return queue_.size();
  }
  [[nodiscard]] std::size_t running_count() const override {
    return running_.size();
  }

 protected:
  [[nodiscard]] int used() const {
    int procs = 0;
    for (const Job& job : running_) procs += job.procs;
    return procs;
  }
  /// Move queue_[index] to running_ and return it.
  Job start_at(std::size_t index) {
    const Job job = queue_[index];
    queue_.erase(queue_.begin() +
                 static_cast<std::vector<Job>::difference_type>(index));
    running_.push_back(job);
    return job;
  }

  SchedulerConfig config_;
  std::vector<Job> queue_;
  std::vector<Job> running_;
};

/// Mutation 1 -- capacity overflow: starts every queued job immediately,
/// no matter how many processors are free.
class CapacityOverflowScheduler final : public ShimScheduler {
 public:
  using ShimScheduler::ShimScheduler;
  using Scheduler::select_starts;
  void select_starts(Time, std::vector<Job>& out) override {
    while (!queue_.empty()) out.push_back(start_at(0));
  }
};

/// Mutation 2 -- delayed-reservation start: schedules FCFS (correctly),
/// but *claims* every queued job is guaranteed to start at its submit
/// time, under conservative (monotone) audit hooks. Any queueing delay
/// then breaks the advertised guarantee.
class DelayedReservationScheduler final : public ShimScheduler {
 public:
  using ShimScheduler::ShimScheduler;
  using Scheduler::select_starts;
  void select_starts(Time, std::vector<Job>& out) override {
    while (!queue_.empty() &&
           queue_.front().procs <= config_.procs - used())
      out.push_back(start_at(0));
  }
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.reservations = true, .monotone_reservations = true};
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override {
    std::vector<AuditReservation> out;
    for (const Job& job : queue_)
      out.push_back({job.id, job.submit, job.estimate, job.procs});
    return out;
  }
};

/// Mutation 3 -- stale profile breakpoint: maintains a real availability
/// profile but "forgets" to release the unused tail of an early-finishing
/// job's rectangle -- exactly the PR-1 class of staleness bug.
class StaleProfileScheduler final : public ShimScheduler {
 public:
  explicit StaleProfileScheduler(SchedulerConfig config)
      : ShimScheduler(config), profile_(config.procs) {}
  bool job_submitted(const Job& job, Time now) override {
    const Time anchor =
        profile_.earliest_anchor(job.procs, job.bb, job.estimate, now);
    profile_.reserve(anchor, anchor + job.estimate, job.procs, job.bb);
    queue_.push_back(job);
    return true;
  }
  bool job_finished(JobId id, Time now) override {
    // Bug under test: the tail [now, start + estimate) stays reserved.
    return ShimScheduler::job_finished(id, now);
  }
  using Scheduler::select_starts;
  void select_starts(Time, std::vector<Job>& out) override {
    while (!queue_.empty() &&
           queue_.front().procs <= config_.procs - used())
      out.push_back(start_at(0));
  }
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }

 private:
  MultiProfile profile_;
};

/// Mutation 4 -- burst-buffer staleness: tracks both axes correctly on
/// submit, but an early finish releases only the *processor* tail of
/// the estimated rectangle; the buffer gigabytes stay pinned. Only the
/// second axis diverges, so this mutant proves the profile cross-check
/// compares the axes independently.
class StaleBufferProfileScheduler final : public ShimScheduler {
 public:
  explicit StaleBufferProfileScheduler(SchedulerConfig config)
      : ShimScheduler(config), profile_(config.procs, config.burst_buffer) {}
  bool job_submitted(const Job& job, Time now) override {
    const Time anchor =
        profile_.earliest_anchor(job.procs, job.bb, job.estimate, now);
    profile_.reserve(anchor, anchor + job.estimate, job.procs, job.bb);
    queue_.push_back(job);
    return true;
  }
  bool job_finished(JobId id, Time now) override {
    for (const Job& job : running_)
      if (job.id == id) {
        // Bug under test: the tail release forgets the buffer axis.
        const Time end = job.submit + job.estimate;
        if (now < end) profile_.release(now, end, job.procs, 0);
        break;
      }
    return ShimScheduler::job_finished(id, now);
  }
  using Scheduler::select_starts;
  void select_starts(Time, std::vector<Job>& out) override {
    while (!queue_.empty() &&
           queue_.front().procs <= config_.procs - used())
      out.push_back(start_at(0));
  }
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }

 private:
  MultiProfile profile_;
};

/// Mutations 5-7 -- a profile-keeping shim whose profile books every
/// started job exactly (the traces use exact estimates, so finishes land
/// on the booked end) while its other bookkeeping is deliberately out of
/// step with it: each of `promises` is reported as a reservation (and
/// honored: the job waits until its promised start) but never booked,
/// and each of `leaked` is booked although no job accounts for it.
class MisbookedProfileScheduler final : public ShimScheduler {
 public:
  MisbookedProfileScheduler(SchedulerConfig config,
                            std::vector<AuditReservation> promises,
                            std::vector<AuditReservation> leaked = {})
      : ShimScheduler(config),
        profile_(config.procs, config.burst_buffer),
        promises_(std::move(promises)) {
    for (const AuditReservation& res : leaked)
      profile_.reserve(res.start, res.start + res.estimate, res.procs,
                       res.bb);
  }
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    for (std::size_t i = 0; i < queue_.size();) {
      const Job& job = queue_[i];
      const AuditReservation* promise = promise_of(job.id);
      if (job.procs > config_.procs - used() ||
          (promise != nullptr && promise->start > now)) {
        ++i;
        continue;
      }
      profile_.reserve(now, now + job.estimate, job.procs, job.bb);
      out.push_back(start_at(i));
    }
  }
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override {
    std::vector<AuditReservation> out;
    for (const Job& job : queue_)
      if (const AuditReservation* promise = promise_of(job.id))
        out.push_back(*promise);
    return out;
  }

 private:
  [[nodiscard]] const AuditReservation* promise_of(JobId id) const {
    for (const AuditReservation& res : promises_)
      if (res.id == id) return &res;
    return nullptr;
  }

  MultiProfile profile_;
  std::vector<AuditReservation> promises_;
};

/// Mutations 8-9 -- a report that changes while the profile does not
/// follow. The shim books `promise` in its profile when that job
/// arrives and holds the job until the promised start. From `change_at`
/// on it reports the promise at `moved_start` instead, or drops it from
/// the report when `moved_start` is kNoTime. The profile keeps the
/// rectangle it booked, unless `profile_follows` releases it at the
/// change: a job that loses its reservation while still queued is legal
/// when the profile agrees.
class ChangingReportScheduler final : public ShimScheduler {
 public:
  ChangingReportScheduler(SchedulerConfig config, AuditReservation promise,
                          Time change_at, Time moved_start,
                          bool profile_follows = false)
      : ShimScheduler(config),
        profile_(config.procs, config.burst_buffer),
        promise_(promise),
        change_at_(change_at),
        moved_start_(moved_start),
        profile_follows_(profile_follows) {}
  bool job_submitted(const Job& job, Time now) override {
    now_ = now;
    if (job.id == promise_.id) {
      profile_.reserve(promise_.start, promise_.start + promise_.estimate,
                       promise_.procs, promise_.bb);
      booked_ = true;
    }
    return ShimScheduler::job_submitted(job, now);
  }
  bool job_finished(JobId id, Time now) override {
    now_ = now;
    return ShimScheduler::job_finished(id, now);
  }
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override {
    now_ = now;
    if (profile_follows_ && booked_ && now >= change_at_) release_promise();
    for (std::size_t i = 0; i < queue_.size();) {
      const Job& job = queue_[i];
      if (job.procs > config_.procs - used() ||
          (job.id == promise_.id && now < promise_.start)) {
        ++i;
        continue;
      }
      if (job.id == promise_.id && booked_) release_promise();
      profile_.reserve(now, now + job.estimate, job.procs, job.bb);
      out.push_back(start_at(i));
    }
  }
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true, .reservations = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override {
    std::vector<AuditReservation> out;
    for (const Job& job : queue_) {
      if (job.id != promise_.id) continue;
      AuditReservation res = promise_;
      if (now_ >= change_at_) {
        if (moved_start_ == sim::kNoTime) continue;
        res.start = moved_start_;
      }
      out.push_back(res);
    }
    return out;
  }

 private:
  void release_promise() {
    profile_.release(promise_.start, promise_.start + promise_.estimate,
                     promise_.procs, promise_.bb);
    booked_ = false;
  }

  MultiProfile profile_;
  AuditReservation promise_;
  Time change_at_;
  Time moved_start_;
  bool profile_follows_;
  bool booked_ = false;
  Time now_ = 0;
};

/// Run `scheduler` over `trace` under a collecting (non-fatal) auditor
/// and return the recorded violations.
std::vector<AuditViolation> audit_run(const Trace& trace,
                                      Scheduler& scheduler) {
  ScheduleAuditor auditor{scheduler, {.fatal = false}};
  const auto result =
      run_simulation(trace, scheduler, {.auditor = &auditor});
  EXPECT_GT(result.events, 0u);
  EXPECT_GT(auditor.checks(), 0u);
  return auditor.violations();
}

TEST(AuditMutation, DetectsCapacityOverflow) {
  // 4-processor machine, two 3-wide jobs at t=0: the shim starts both.
  const Trace trace = make_trace({{.submit = 0, .runtime = 10, .procs = 3},
                                  {.submit = 0, .runtime = 10, .procs = 3}});
  CapacityOverflowScheduler scheduler{SchedulerConfig{4}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_FALSE(violations.empty());
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "capacity");
  EXPECT_EQ(v.when, 0);
  EXPECT_EQ(v.job, 1u);  // the second start is the oversubscribing one
  EXPECT_EQ(v.expected, 4);  // machine size
  EXPECT_EQ(v.actual, 6);    // 3 busy + 3 started
}

TEST(AuditMutation, DetectsDelayedReservationStart) {
  // Job 0 fills the machine for 5 s; job 1 is promised (fraudulently) a
  // start at its submit time 0, but cannot start before 5.
  const Trace trace = make_trace({{.submit = 0, .runtime = 5, .procs = 4},
                                  {.submit = 0, .runtime = 5, .procs = 4}});
  DelayedReservationScheduler scheduler{SchedulerConfig{4}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_FALSE(violations.empty());
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "guarantee-delayed");
  EXPECT_EQ(v.when, 5);
  EXPECT_EQ(v.job, 1u);
  EXPECT_EQ(v.expected, 0);  // the first-assigned (claimed) reservation
  EXPECT_EQ(v.actual, 5);    // the actual, delayed start
}

TEST(AuditMutation, DetectsStaleProfileBreakpoint) {
  // One machine-filling job, estimated 10 s, actually 5 s: the shim
  // keeps [5, 10) reserved after the early completion. The auditor must
  // flag the divergence at t=5 -- the moment of staleness -- not later.
  const Trace trace = make_trace(
      {{.submit = 0, .runtime = 5, .procs = 4, .estimate = 10}});
  StaleProfileScheduler scheduler{SchedulerConfig{4}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_FALSE(violations.empty());
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 5);
  EXPECT_EQ(v.expected, 4);  // all processors should be free...
  EXPECT_EQ(v.actual, 0);    // ...but the stale rectangle holds them
  EXPECT_NE(v.detail.find("stale"), std::string::npos);
}

TEST(AuditMutation, DetectsBufferCapacityOverflow) {
  // Both jobs fit on the processor axis (1 + 1 of 4); the machine's 10
  // buffer GB do not cover 8 + 8. Only "capacity-bb" may fire.
  const Trace trace =
      make_trace({{.submit = 0, .runtime = 10, .procs = 1, .bb = 8},
                  {.submit = 0, .runtime = 10, .procs = 1, .bb = 8}});
  CapacityOverflowScheduler scheduler{
      SchedulerConfig{4, PriorityPolicy::Fcfs, /*burst_buffer=*/10}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_FALSE(violations.empty());
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "capacity-bb");
  EXPECT_EQ(v.when, 0);
  EXPECT_EQ(v.job, 1u);
  EXPECT_EQ(v.expected, 10);  // buffer capacity
  EXPECT_EQ(v.actual, 16);    // 8 held + 8 started
  for (const AuditViolation& each : violations)
    EXPECT_NE(each.invariant, "capacity") << "processor axis is not over";
}

TEST(AuditMutation, DetectsStaleBufferBreakpoint) {
  // Early completion at t=5 of a job estimated to 10: the shim releases
  // the processor tail but pins the buffer tail. Exactly the buffer
  // axis diverges, at the moment of staleness.
  const Trace trace = make_trace(
      {{.submit = 0, .runtime = 5, .procs = 4, .estimate = 10, .bb = 8}});
  StaleBufferProfileScheduler scheduler{
      SchedulerConfig{4, PriorityPolicy::Fcfs, /*burst_buffer=*/8}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_FALSE(violations.empty());
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 5);
  EXPECT_EQ(v.expected, 8);  // all buffer GB should be free...
  EXPECT_EQ(v.actual, 0);    // ...but the stale rectangle holds them
  EXPECT_NE(v.detail.find("burst-buffer"), std::string::npos);
}

TEST(AuditMutation, DetectsRunningPlusReservedOverflow) {
  // Job 0 holds 3 of 4 processors over [0, 10). Jobs 1 and 2 (2 wide
  // each) are promised starts at 8 and 5 -- neither fits beside job 0.
  // The expected timeline is rebuilt running first, then reservations
  // in reported order, so job 1's rectangle trips first, at t=8, even
  // though the implied occupancy already overflows from t=5.
  const Trace trace = make_trace({{.submit = 0, .runtime = 10, .procs = 3},
                                  {.submit = 0, .runtime = 10, .procs = 2},
                                  {.submit = 0, .runtime = 10, .procs = 2}});
  MisbookedProfileScheduler scheduler{
      SchedulerConfig{4},
      {{.id = 1, .start = 8, .estimate = 10, .procs = 2},
       {.id = 2, .start = 5, .estimate = 10, .procs = 2}}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_EQ(violations.size(), 1u);
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 0);
  EXPECT_EQ(v.expected, 0);
  EXPECT_EQ(v.actual, 0);
  EXPECT_EQ(v.detail,
            "running + reserved jobs overflow the machine: MultiProfile: "
            "over-reservation on the procs axis at t=8");
}

TEST(AuditMutation, DetectsRunningPlusReservedBufferOverflow) {
  // Processors suffice (1 + 1 of 4); the 10 buffer GB do not cover job
  // 0's 8 plus the 4 promised to job 1 from t=5.
  const Trace trace =
      make_trace({{.submit = 0, .runtime = 10, .procs = 1, .bb = 8},
                  {.submit = 0, .runtime = 10, .procs = 1, .bb = 4}});
  MisbookedProfileScheduler scheduler{
      SchedulerConfig{4, PriorityPolicy::Fcfs, /*burst_buffer=*/10},
      {{.id = 1, .start = 5, .estimate = 10, .procs = 1, .bb = 4}}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_EQ(violations.size(), 1u);
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 0);
  EXPECT_EQ(v.detail,
            "running + reserved jobs overflow the machine: MultiProfile: "
            "over-reservation on the burst-buffer axis at t=5");
}

TEST(AuditMutation, DetectsNegativeReservedDemand) {
  // A corrupted reservation claims -1 processors: a rectangle that
  // would add capacity. It is rejected as such, not summed away.
  const Trace trace = make_trace({{.submit = 0, .runtime = 10, .procs = 3},
                                  {.submit = 0, .runtime = 10, .procs = 2}});
  MisbookedProfileScheduler scheduler{
      SchedulerConfig{4}, {{.id = 1, .start = 10, .estimate = 10, .procs = -1}}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_EQ(violations.size(), 1u);
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 0);
  EXPECT_EQ(v.detail,
            "running + reserved jobs overflow the machine: "
            "MultiProfile::reserve: negative demand");
}

TEST(AuditMutation, DetectsDivergenceAtABreakpointOnlyTheProfileHas) {
  // The profile carries a leaked booking over [104, 106) that no job
  // accounts for. Both timelines agree at now=100 and at every
  // breakpoint of the expected one; only the profile's own breakpoint
  // at 104 exposes the leak.
  const Trace trace =
      make_trace({{.submit = 100, .runtime = 10, .procs = 2}});
  MisbookedProfileScheduler scheduler{
      SchedulerConfig{4},
      {},
      {{.id = 9, .start = 104, .estimate = 2, .procs = 1}}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_EQ(violations.size(), 1u);
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 100);
  EXPECT_EQ(v.expected, 2);  // job 0 alone leaves 2 free at 104...
  EXPECT_EQ(v.actual, 1);    // ...but the leaked booking holds one more
  EXPECT_NE(v.detail.find("free(104)"), std::string::npos) << v.detail;
}

TEST(AuditMutation, DetectsDivergenceAtABreakpointOnlyTheExpectedHas) {
  // Job 1 is promised [105, 108) beside job 0's [100, 110), but the
  // promise is never booked: the profile stays flat across 105, so only
  // the expected timeline's breakpoint there exposes the gap.
  const Trace trace = make_trace({{.submit = 100, .runtime = 10, .procs = 2},
                                  {.submit = 100, .runtime = 3, .procs = 1}});
  MisbookedProfileScheduler scheduler{
      SchedulerConfig{4},
      {{.id = 1, .start = 105, .estimate = 3, .procs = 1}}};
  const auto violations = audit_run(trace, scheduler);
  ASSERT_EQ(violations.size(), 1u);
  const AuditViolation& v = violations.front();
  EXPECT_EQ(v.invariant, "profile-divergence");
  EXPECT_EQ(v.when, 100);
  EXPECT_EQ(v.expected, 1);  // job 0 + job 1's promise leave 1 free...
  EXPECT_EQ(v.actual, 2);    // ...the profile never booked the promise
  EXPECT_NE(v.detail.find("free(105)"), std::string::npos) << v.detail;
}

/// The trace the report-changing shims run: job 0 holds 2 of 4
/// processors over [0, 10), job 1 needs the whole machine and is
/// promised [10, 15), and job 2 arrives at 4, the instant the report
/// changes, and runs beside job 0 over [4, 6).
Trace changing_report_trace() {
  return make_trace({{.submit = 0, .runtime = 10, .procs = 2},
                     {.submit = 0, .runtime = 5, .procs = 4},
                     {.submit = 4, .runtime = 2, .procs = 1}});
}

constexpr AuditReservation kChangingPromise{
    .id = 1, .start = 10, .estimate = 5, .procs = 4};

/// Both report-changing mutants diverge at the change and again at job
/// 2's finish: the profile still holds job 1's booking over [10, 15),
/// while the report no longer accounts for it there. The diagnostics and
/// check counts were recorded with the auditor that rebuilt its expected
/// timeline every cycle, and the kept timeline must reproduce them.
void expect_stale_booking_at_10(const ScheduleAuditor& auditor) {
  const std::vector<AuditViolation>& violations = auditor.violations();
  ASSERT_EQ(violations.size(), 2u);
  const Time whens[] = {4, 6};
  for (std::size_t k = 0; k < violations.size(); ++k) {
    const AuditViolation& v = violations[k];
    EXPECT_EQ(v.invariant, "profile-divergence");
    EXPECT_EQ(v.when, whens[k]);
    EXPECT_EQ(v.expected, 4);  // job 0 is gone by 10 and nothing is due
    EXPECT_EQ(v.actual, 0);    // the booking the report no longer shows
    EXPECT_EQ(v.detail,
              "availability profile free(10) disagrees with occupancy "
              "implied by running + reserved jobs (stale breakpoint)");
  }
}

TEST(AuditMutation, DetectsAReportedMoveTheProfileDidNotMake) {
  // From t=4 the report promises job 1 [12, 17); the profile never
  // moved it off [10, 15).
  ChangingReportScheduler scheduler{SchedulerConfig{4}, kChangingPromise,
                                    /*change_at=*/4, /*moved_start=*/12};
  ScheduleAuditor auditor{scheduler, {.fatal = false}};
  (void)run_simulation(changing_report_trace(), scheduler,
                       {.auditor = &auditor});
  expect_stale_booking_at_10(auditor);
  EXPECT_EQ(auditor.checks(), 83u);
}

TEST(AuditMutation, DetectsAQueuedJobDroppedFromTheReport) {
  // From t=4 the report leaves out job 1, which still waits; the
  // profile keeps its booking.
  ChangingReportScheduler scheduler{SchedulerConfig{4}, kChangingPromise,
                                    /*change_at=*/4,
                                    /*moved_start=*/sim::kNoTime};
  ScheduleAuditor auditor{scheduler, {.fatal = false}};
  (void)run_simulation(changing_report_trace(), scheduler,
                       {.auditor = &auditor});
  expect_stale_booking_at_10(auditor);
  EXPECT_EQ(auditor.checks(), 79u);
}

TEST(Audit, AReservationDroppedFromReportAndProfileIsNoViolation) {
  // As above, but the profile releases job 1's booking when the report
  // drops it: report and profile agree, so the auditor must stay
  // silent. Only the kept timeline still holds the old rectangle, and
  // the one rebuild that finds the unreported holder discards it.
  ChangingReportScheduler scheduler{SchedulerConfig{4}, kChangingPromise,
                                    /*change_at=*/4,
                                    /*moved_start=*/sim::kNoTime,
                                    /*profile_follows=*/true};
  ScheduleAuditor auditor{scheduler, {.fatal = false}};
  (void)run_simulation(changing_report_trace(), scheduler,
                       {.auditor = &auditor});
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().to_string();
  EXPECT_EQ(auditor.checks(), 91u);
  EXPECT_EQ(auditor.reseeds(), 1u);
}

TEST(AuditMutation, FatalModeThrowsAtTheViolatingEvent) {
  const Trace trace = make_trace({{.submit = 0, .runtime = 10, .procs = 3},
                                  {.submit = 0, .runtime = 10, .procs = 3}});
  CapacityOverflowScheduler scheduler{SchedulerConfig{4}};
  EXPECT_THROW((void)run_simulation(trace, scheduler, {.audit = true}),
               std::logic_error);
}

TEST(Audit, CleanConservativeRunHasNoViolations) {
  // A workload with early completions (estimate > runtime) exercises
  // release + compression -- the paths where staleness bugs live. The
  // auditor must stay silent and must have actually checked things.
  const Trace trace = test::random_trace(200, 16, 7, /*overestimate=*/true);
  ConservativeScheduler scheduler{SchedulerConfig{16}};
  ScheduleAuditor auditor{scheduler, {.fatal = false}};
  const auto result =
      run_simulation(trace, scheduler, {.auditor = &auditor});
  EXPECT_GT(result.events, 0u);
  EXPECT_TRUE(auditor.ok()) << auditor.violations().front().to_string();
  EXPECT_GT(auditor.checks(), trace.size());
}

/// One clean audited run whose checks() total is pinned: the count of
/// individual invariant checks is part of the auditor's contract, so a
/// cheaper auditor must still run exactly the same checks.
struct GoldenAuditRun {
  const char* name;
  SchedulerKind kind;
  bool contended;  ///< burst-buffer demands plus an outage trace
  std::uint64_t checks;
};

TEST(Audit, CheckCountsMatchTheGoldenRuns) {
  constexpr int kProcs = 32;
  constexpr int kBurstBuffer = 64;
  const GoldenAuditRun runs[] = {
      {"conservative", SchedulerKind::Conservative, false, 461694},
      {"slack", SchedulerKind::Slack, false, 382284},
      // Plan keeps its plan between events, so its profile and planned
      // starts are cross-checked every cycle like conservative's.
      {"plan", SchedulerKind::Plan, false, 410490},
      {"easy", SchedulerKind::Easy, false, 3280},
      {"conservative-bb-outages", SchedulerKind::Conservative, true, 513043},
      {"easy-bb-outages", SchedulerKind::Easy, true, 3526},
  };
  for (const GoldenAuditRun& run : runs) {
    SCOPED_TRACE(run.name);
    // Overestimated runtimes: early completions drive compression and
    // replanning, where reservations and the profile move the most.
    Trace trace = test::random_trace(300, kProcs, 11, /*overestimate=*/true);
    SchedulerConfig config{kProcs};
    sim::FailureTrace failures;
    if (run.contended) {
      test::assign_random_bb(trace, 24, 12);
      config.burst_buffer = kBurstBuffer;
      failures = sim::generate_failures({.mean_uptime = 6.0 * sim::kHour,
                                         .mean_repair = 1.0 * sim::kHour,
                                         .max_procs_lost = 8,
                                         .max_bb_lost = 16},
                                        kProcs, kBurstBuffer, 13);
    }
    const auto scheduler = make_scheduler(run.kind, config);
    ScheduleAuditor auditor{*scheduler, {.fatal = false}};
    const SimulationResult result = run_simulation(
        trace, *scheduler,
        {.auditor = &auditor,
         .failures = run.contended ? &failures : nullptr});
    EXPECT_TRUE(auditor.ok()) << auditor.violations().front().to_string();
    EXPECT_EQ(auditor.checks(), run.checks);
    // The contended runs must reach the outage paths they exist for.
    if (run.contended) {
      EXPECT_GT(result.kills, 0u);
    }
  }
}

TEST(Audit, ViolationToStringCarriesStructure) {
  const AuditViolation v{.invariant = "capacity",
                         .when = 42,
                         .job = 7,
                         .expected = 4,
                         .actual = 6,
                         .detail = "oversubscribed"};
  const std::string text = v.to_string();
  EXPECT_NE(text.find("[capacity]"), std::string::npos);
  EXPECT_NE(text.find("t=42"), std::string::npos);
  EXPECT_NE(text.find("job=7"), std::string::npos);
  EXPECT_NE(text.find("expected=4"), std::string::npos);
  EXPECT_NE(text.find("actual=6"), std::string::npos);
  EXPECT_NE(text.find("oversubscribed"), std::string::npos);
}

}  // namespace
}  // namespace bfsim::core
