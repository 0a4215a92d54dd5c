// bfsim -- the decision core: the incremental online-scheduling seam.
//
// Everything a scheduling *system* needs from the schedulers, with the
// event loop factored out: feed it submit/finish/cancel/wake events in
// time order, close each same-time batch with end_cycle(), and read
// back explicit decisions -- which jobs start now, and the next instant
// a pass must run even if no event lands there. The trace-driven
// simulator (core/replay.hpp + run_simulation) and the network service
// (src/svc) are two fronts over this one object, which is what makes
// "simulator" and "daemon" provably the same scheduler: the
// differential suite replays identical traces through both and demands
// byte-identical schedules.
//
// The core owns the policy-side bookkeeping the old driver kept inline:
// per-job lifecycle state (so hostile event streams are rejected
// *before* they can corrupt scheduler invariants), the pass-necessity
// accounting (no-op cycles are skipped and counted), and the optional
// ScheduleAuditor, which observes every event through this seam no
// matter which front delivered it. It deliberately does NOT know true
// runtimes: completions are events the caller delivers, exactly as a
// production scheduler learns of them.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_table.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "sim/failure.hpp"

namespace bfsim::core {

class ScheduleAuditor;

/// An event stream violated the decision-core contract (duplicate
/// submit, finish of a job that is not running, time running backwards,
/// ...). Thrown *before* the scheduler is touched, so the scheduler's
/// state is still coherent and the caller may keep serving -- the
/// service front quarantines the offending frame and replies with a
/// structured error instead of dying.
class DecisionError : public std::logic_error {
 public:
  explicit DecisionError(const std::string& what) : std::logic_error(what) {}
};

/// Hard ceiling on tracked job ids. Ids are dense trace indices in
/// every legitimate front; a hostile service client sending id 4e9
/// must not be able to make the phase table allocate gigabytes.
/// Public so fronts that pre-validate whole batches (src/svc) can
/// mirror the check before any event is applied.
inline constexpr workload::JobId kMaxTrackedJobs = workload::JobId{1} << 26;

/// Hard ceiling on tracked outage ids, for the same hostile-input
/// reason as kMaxTrackedJobs: failure-trace records carry dense ids,
/// and a service client naming outage 4e9 must not grow the phase
/// table unboundedly.
inline constexpr sim::OutageId kMaxTrackedOutages = sim::OutageId{1} << 20;

/// Lifecycle of one job as the decision core has observed it.
enum class JobPhase : std::uint8_t {
  kUnseen = 0,    ///< no event mentioned this id yet
  kQueued = 1,    ///< submitted, waiting
  kRunning = 2,   ///< started by a decision
  kFinished = 3,  ///< completion delivered
  kCancelled = 4, ///< withdrawn from the queue before starting
};

/// Counters the old simulation driver reported; now maintained at the
/// seam so both fronts agree on them by construction.
struct DecisionStats {
  std::uint64_t events = 0;         ///< submit + finish + cancel delivered
  std::uint64_t passes = 0;         ///< select_starts cycles executed
  std::uint64_t passes_skipped = 0; ///< batches proven no-op and skipped
  std::uint64_t wakeups = 0;        ///< wake (timer) events delivered
  std::size_t max_queue = 0;        ///< peak wait-queue depth observed
  std::uint64_t outages = 0;        ///< node-down events delivered
  std::uint64_t repairs = 0;        ///< node-up events delivered
  std::uint64_t kills = 0;          ///< running jobs preempted by outages
};

/// The explicit decision closing one same-time batch of events.
struct CycleDecision {
  /// Jobs that begin execution now, in commit order. The span aliases
  /// scratch inside the DecisionCore and is valid until the next
  /// end_cycle() call.
  std::span<const JobId> starts;
  /// Jobs whose current run was voided by an outage in this batch, in
  /// kill order. Each has already been requeued inside the core (with
  /// its original submit time and a policy-adjusted estimate); the
  /// caller's job is to neutralize the completion it had scheduled for
  /// the voided run. Aliases core scratch like `starts`; empty in every
  /// outage-free batch, so zero-outage decision streams are unchanged.
  std::span<const JobId> killed;
  /// Earliest future instant at which a pass must run even if no event
  /// lands there (a reservation coming due), or sim::kNoTime.
  Time next_wakeup = sim::kNoTime;
  /// Whether a scheduling pass actually executed (false = provably
  /// no-op batch, skipped and counted).
  bool pass_ran = false;
};

/// The incremental decision API over one Scheduler.
///
/// Call discipline (identical to the event contract the simulation
/// driver always enforced, now checked here):
///  * events are delivered in non-decreasing time order; within one
///    instant, finishes before submits before cancels before wakes;
///  * end_cycle(now) closes the batch of events delivered at `now` --
///    it must be called once per distinct timestamp, after the last
///    event of that instant (and may be called for an eventless instant
///    reached by a wake timer);
///  * the caller starts exactly the jobs end_cycle() returns, and later
///    delivers each one's completion via on_finish.
///
/// A contract violation throws DecisionError before any scheduler
/// mutation, so the core stays consistent and serviceable. That
/// includes a clock that passes a deadline -- a running job's estimated
/// end, an active outage's repair instant -- before its finish or repair
/// arrives: every event after the deadline, and an end_cycle at it, is
/// rejected, because the schedulers plan as if that capacity were free
/// from the deadline on.
class DecisionCore {
 public:
  /// `auditor`, when given, observes every event before the scheduler
  /// sees it (the discipline core/audit.hpp documents). Not owned.
  /// `requeue` fixes what happens to outage-killed jobs for the whole
  /// session (both fronts carry it in their handshake / options).
  explicit DecisionCore(
      Scheduler& scheduler, ScheduleAuditor* auditor = nullptr,
      sim::RequeuePolicy requeue = sim::RequeuePolicy::kResubmitFull);

  DecisionCore(const DecisionCore&) = delete;
  DecisionCore& operator=(const DecisionCore&) = delete;

  /// Pre-size the per-job state table (ids are dense; the trace fronts
  /// know the job count up front).
  void reserve_jobs(std::size_t count);

  /// A new job arrives. `job.submit` must equal `now` -- an arrival is
  /// an event *at* its submission instant.
  void on_submit(const Job& job, Time now);

  /// A started job completed (the caller owns true runtimes; the core
  /// only checks the id is actually running).
  void on_finish(JobId id, Time now);

  /// The user withdraws a job. Queued: it leaves the queue for good.
  /// Running/finished: a no-op for the scheduler, but the batch still
  /// advances the clock, and clock-driven policies (XFactor ordering,
  /// selective promotion) can surface a start from time alone -- so a
  /// pass is forced. Unseen/already-cancelled ids are contract errors.
  void on_cancel(JobId id, Time now);

  /// A wake timer fired (no payload: end_cycle re-asks the scheduler
  /// whether its earliest reservation is in fact due -- a stale wake is
  /// a counted no-op).
  void on_wake(Time now);

  /// `outage` takes effect now (outage.down_at must equal `now`). The
  /// core selects the victims deterministically -- running jobs,
  /// latest start first (larger id first on ties), until the outage's
  /// demand is free on both axes -- kills them through the scheduler's
  /// job_killed hook, registers the downtime, and requeues every victim
  /// in current priority order with its original submit time (estimate
  /// adjusted per the requeue policy). The voided runs are reported in
  /// CycleDecision::killed at the end of the batch. Malformed outages
  /// (duplicate id, wrong instant, losses exceeding the still-up
  /// machine, ...) throw DecisionError before any mutation.
  void on_node_down(const sim::Outage& outage, Time now);

  /// The active outage `id` repairs now (its stored repair_at must
  /// equal `now`); the lost capacity returns to service. Unknown or
  /// already-repaired ids throw DecisionError.
  void on_node_up(sim::OutageId id, Time now);

  /// Close the batch at `now`: run a scheduling pass if any event hook
  /// vouched for one (or a reservation is due), commit the starts, and
  /// report the decision. Throws DecisionError if the scheduler claims
  /// an overdue wake-up or starts a job that is not queued.
  [[nodiscard]] CycleDecision end_cycle(Time now);

  [[nodiscard]] const DecisionStats& stats() const { return stats_; }
  [[nodiscard]] std::string name() const { return scheduler_->name(); }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] std::size_t queued() const { return queued_; }
  [[nodiscard]] std::size_t running() const { return running_; }

  /// Lifecycle of `id` as observed through this core.
  [[nodiscard]] JobPhase phase(JobId id) const {
    return id < phases_.size() ? phases_[id] : JobPhase::kUnseen;
  }

  /// The machine size the wrapped scheduler was configured with.
  [[nodiscard]] int machine_procs() const {
    return scheduler_->config().procs;
  }

  /// The shared burst-buffer capacity (GB) the wrapped scheduler was
  /// configured with; 0 = the axis is absent.
  [[nodiscard]] int machine_burst_buffer() const {
    return scheduler_->config().burst_buffer;
  }

  [[nodiscard]] sim::RequeuePolicy requeue_policy() const {
    return requeue_;
  }

  // Outage introspection, public so the service front can mirror the
  // hostile-input checks during batch pre-validation (the same pattern
  // as kMaxTrackedJobs / phase()).
  /// True once any node-down event carried this id (active or repaired).
  [[nodiscard]] bool outage_known(sim::OutageId id) const {
    return id < outage_phases_.size() && outage_phases_[id] != 0;
  }
  /// Repair time of a currently-active outage, sim::kNoTime otherwise.
  [[nodiscard]] Time outage_repair_at(sim::OutageId id) const;
  /// The full record of a currently-active outage, nullptr otherwise
  /// (invalidated by the next on_node_down/on_node_up).
  [[nodiscard]] const sim::Outage* active_outage(sim::OutageId id) const;
  /// Capacity currently lost to active outages, per axis.
  [[nodiscard]] int down_procs() const { return down_procs_; }
  [[nodiscard]] int down_bb() const { return down_bb_; }

  // The deadline rule, public with the two tables below so batch
  // pre-validation (src/svc) can mirror it. A deadline has passed at
  // `now` when it lies before `now`, or at `now` too when `closing`:
  // every event hook refuses an instant past a deadline, and end_cycle,
  // which commits starts at `now`, also refuses one that falls on it.
  /// The running job whose estimated end has passed (the earliest such
  /// end, smallest id on ties), or kInvalidJob.
  [[nodiscard]] JobId overdue_job(Time now, bool closing) const;
  /// The active outage whose repair instant has passed (the earliest,
  /// first delivered on ties), or nullptr.
  [[nodiscard]] const sim::Outage* overdue_outage(Time now,
                                                  bool closing) const;
  /// Running jobs, in no particular order.
  [[nodiscard]] const std::vector<RunningJob>& running_jobs() const {
    return running_jobs_.jobs();
  }
  /// Active outages, in delivery order.
  [[nodiscard]] const std::vector<sim::Outage>& active_outages() const {
    return active_outages_;
  }

 private:
  /// Guard shared by every hook: time is monotonic and no deadline has
  /// passed at `now` (`closing` for end_cycle).
  void check_time(Time now, const char* hook, bool closing = false);
  /// check_time's slow path, once the clock reaches due_: raises due_ to
  /// the earliest deadline, and throws if that one has passed.
  void check_deadlines(Time now, const char* hook, bool closing);
  [[nodiscard]] JobPhase phase_or_grow(JobId id);

  Scheduler* scheduler_;
  ScheduleAuditor* auditor_;
  sim::RequeuePolicy requeue_;
  std::vector<JobPhase> phases_;   ///< lifecycle per job id
  std::vector<Job> starts_;        ///< select_starts scratch
  std::vector<JobId> start_ids_;   ///< CycleDecision backing store
  DecisionStats stats_;
  std::size_t queued_ = 0;         ///< live wait-queue depth
  std::size_t running_ = 0;        ///< live running-set size
  Time last_time_ = 0;             ///< latest event instant seen
  bool pass_needed_ = false;       ///< some hook vouched for a pass
  /// Running jobs with their start instants: the victim-selection
  /// ledger (what can be killed, in what deterministic order, and how
  /// much of each estimate is already spent). Maintained on every
  /// start/finish; cheap slot-map operations, so the outage-free hot
  /// path keeps its cost profile.
  RunningTable running_jobs_;
  /// Outage lifecycle per id: 0 unseen, 1 active, 2 repaired.
  std::vector<std::uint8_t> outage_phases_;
  std::vector<sim::Outage> active_outages_;  ///< few at a time; linear scan
  int down_procs_ = 0;             ///< capacity lost to active outages
  int down_bb_ = 0;
  std::vector<JobId> killed_ids_;  ///< CycleDecision::killed backing store
  /// killed_ids_ was handed out by an end_cycle and must be dropped
  /// when the next batch produces kills (or the next cycle closes).
  bool killed_consumed_ = false;
  std::vector<RunningJob> victim_scratch_;
  std::vector<Job> requeue_scratch_;
  /// Lower bound on every deadline (kTimeMax: none). A start or an
  /// outage lowers it; a finish, kill or repair leaves it low, and
  /// check_deadlines raises it once the clock gets there. An instant
  /// before it costs one comparison.
  Time due_ = sim::kTimeMax;
};

}  // namespace bfsim::core
