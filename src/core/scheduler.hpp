// bfsim -- the online scheduler interface and common base.
//
// A Scheduler is an online algorithm: it sees job arrivals and
// completions as they happen and decides which queued jobs start *now*.
// It only ever sees user estimates -- the simulation driver owns the true
// runtimes and generates the completion events.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/priority.hpp"
#include "core/job_queue.hpp"
#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/types.hpp"
#include "sim/failure.hpp"

namespace bfsim::core {

/// Configuration shared by all schedulers.
struct SchedulerConfig {
  int procs = 128;                                ///< machine size
  PriorityPolicy priority = PriorityPolicy::Fcfs; ///< queue order
  /// Shared burst-buffer capacity in GB; 0 = the axis is absent and
  /// every job's bb demand must be 0 (the procs-only paper model).
  int burst_buffer = 0;
};

/// What a scheduler exposes to the ScheduleAuditor (core/audit.hpp).
/// Defaults to "nothing": policy-free schedulers (FCFS) and the
/// rebuild-per-pass ones (kres, selective) still get the universal
/// checks (capacity, start-after-submit, ...) from the driver events.
struct AuditHooks {
  /// audit_profile() returns the live availability profile; the auditor
  /// cross-checks it against occupancy implied by running + reserved
  /// jobs after every event batch.
  bool profile = false;
  /// audit_reservations() reports the guaranteed start of every queued
  /// job that holds one.
  bool reservations = false;
  /// Reservations only ever move earlier, and a job never starts later
  /// than its first-assigned reservation (the conservative guarantee).
  bool monotone_reservations = false;
  /// At most one pinned reservation -- the queue head's -- which must
  /// never be delayed while that job stays at the head (EASY).
  bool head_guarantee = false;
};

/// One guaranteed start, as reported to the auditor. `estimate`/`procs`
/// restate the job's rectangle so the auditor can rebuild the expected
/// profile without reaching into the trace.
struct AuditReservation {
  JobId id = workload::kInvalidJob;
  Time start = sim::kNoTime;
  Time estimate = 0;
  int procs = 0;
  int bb = 0;
};

/// Online scheduling algorithm interface.
///
/// Contract (enforced by the simulation driver and the validator):
///  * job_submitted / job_finished are called in event-time order;
///    completions at a given instant are delivered before arrivals.
///  * select_starts(now) is called after a batch of same-time events
///    when any hook in the batch returned true or next_wakeup() == now;
///    the scheduler commits the returned jobs internally (queue ->
///    running) and must never start more processors than are free.
///  * Each event hook returns whether a scheduling pass at `now` became
///    necessary. Returning false is a promise that select_starts(now)
///    would start nothing and is otherwise side-effect free -- the
///    driver skips (and counts) the no-op cycle. When unsure, return
///    true: a spurious pass is only a slowdown, a wrongly skipped one is
///    a missed start.
///  * job_finished(id) is called exactly once per started job, at its
///    true end time (<= start + estimate; jobs die at their limit).
///  * Jobs wider than the machine are rejected by the driver's trace
///    validation; hooks never see them.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual bool job_submitted(const Job& job, Time now) = 0;
  virtual bool job_finished(JobId id, Time now) = 0;

  /// The user withdraws a *queued* job (never called once it started).
  /// The base implementation removes it from the wait queue; schedulers
  /// holding reservations release them (freed future capacity may let
  /// other jobs move up).
  virtual bool job_cancelled(JobId id, Time now);

  /// An outage preempted this *running* job (the decision core has
  /// already chosen the victims). The job leaves the running set like a
  /// completion -- it will be resubmitted via job_submitted once the
  /// outage is registered -- but schedulers keeping completion
  /// statistics (selective's mean slowdown) must not count it as one.
  /// Called only between a kill decision and the matching node_down.
  virtual bool job_killed(JobId id, Time now) {
    return job_finished(id, now);
  }

  /// `outage.procs` / `outage.bb` leave service for
  /// [now, outage.repair_at). Delivered after every victim of the
  /// outage has been killed, so the capacity being taken is genuinely
  /// free on both axes. Schedulers that plan ahead fold the interval
  /// into their availability profile so guarantees anchored across the
  /// outage stay correct. The base implementations throw: a scheduler
  /// must opt into availability semantics explicitly.
  virtual bool node_down(const sim::Outage& outage, Time now);

  /// The outage's capacity returns to service (now == outage.repair_at).
  virtual bool node_up(const sim::Outage& outage, Time now);

  /// Earliest future instant at which a pass must run even if no
  /// submit/finish/cancel event lands there (a reservation coming due at
  /// an otherwise eventless time), or sim::kNoTime. The driver arms a
  /// timer event so such starts fire structurally. Non-reserving
  /// schedulers keep the default: they only ever start jobs in reaction
  /// to events.
  [[nodiscard]] virtual Time next_wakeup() { return sim::kNoTime; }

  /// Decide and commit the set of jobs that begin execution at `now`,
  /// appending them to `out`. `out` is not cleared: the driver owns one
  /// buffer and reuses it across passes, so steady-state scheduling
  /// never allocates. Implementations needing per-pass working storage
  /// should likewise keep reusable member scratch.
  virtual void select_starts(Time now, std::vector<Job>& out) = 0;

  /// Allocating convenience wrapper over the two-argument overload, for
  /// tests and replay tools. Concrete schedulers re-export it with
  /// `using Scheduler::select_starts;`.
  [[nodiscard]] std::vector<Job> select_starts(Time now) {
    std::vector<Job> out;
    select_starts(now, out);
    return out;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual const SchedulerConfig& config() const = 0;

  /// Jobs currently waiting (diagnostics; order unspecified).
  [[nodiscard]] virtual std::size_t queued_count() const = 0;
  [[nodiscard]] virtual std::size_t running_count() const = 0;

  // Auditor introspection (core/audit.hpp). Schedulers that maintain
  // persistent guarantees override these so the auditor can hold them to
  // their own invariants; the defaults opt out.
  [[nodiscard]] virtual AuditHooks audit_hooks() const { return {}; }
  [[nodiscard]] virtual const MultiProfile* audit_profile() const {
    return nullptr;
  }
  [[nodiscard]] virtual std::vector<AuditReservation> audit_reservations()
      const {
    return {};
  }
};

/// Shared bookkeeping: the waiting queue, the running set, and the free
/// processor count. Subclasses implement the policy in select_starts and
/// the reservation maintenance in the event hooks.
class SchedulerBase : public Scheduler {
 public:
  explicit SchedulerBase(SchedulerConfig config);

  /// Removes the job from the wait queue. Returns true whenever jobs
  /// remain queued -- subclasses override with sharper skip rules.
  bool job_cancelled(JobId id, Time now) override;

  /// Generic availability bookkeeping: free capacity shrinks / grows by
  /// the outage's losses and the active-outage list (kept sorted by
  /// (repair_at, id) for the profile rebuilds) is maintained.
  /// Reservation-holding subclasses extend these to repair their
  /// guarantee structures.
  bool node_down(const sim::Outage& outage, Time now) override;
  bool node_up(const sim::Outage& outage, Time now) override;

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
  SchedulerConfig config_;
  /// Waiting jobs. Invariant: under every static priority policy the
  /// queue is permanently in priority order (insert_queued places new
  /// arrivals in-place); only the time-varying XFactor order appends and
  /// defers to ensure_sorted at pass time, which repairs the order the
  /// previous pass left. (FcfsScheduler under XFactor keeps its jobs
  /// in its own head structure instead, and queue_ stays empty.)
  JobQueue queue_;
  RunningTable running_;                          ///< started jobs
  int free_ = 0;                                  ///< processors free now
  int free_bb_ = 0;                               ///< burst-buffer GB free now
  /// Sticky: queue_ has been sorted by id at every instant so far (holds
  /// under FCFS with ids assigned in submit order -- the common case --
  /// and lets queue_index binary-search instead of scanning).
  bool id_sorted_ = true;
  /// Outages currently holding capacity (node_down seen, node_up not
  /// yet), sorted by (repair_at, id). Small: bounded by the number of
  /// concurrently-down outages, not the trace length.
  std::vector<sim::Outage> outages_;
  /// ensure_sorted's per-pass XFactor keys, reused across passes.
  std::vector<double> xfactor_keys_;
  /// The instant ensure_sorted last left queue_ in XFactor order, or
  /// kNoTime once an append may have broken it. Starts and cancels erase
  /// in place, so a second call at the same instant has nothing to do.
  Time sorted_at_ = sim::kNoTime;

  /// True when the configured priority order can change with the clock
  /// (XFactor), so the queue cannot be kept sorted incrementally.
  [[nodiscard]] bool time_varying_priority() const {
    return config_.priority == PriorityPolicy::XFactor;
  }

  /// Add an arrival to queue_: in priority position under static
  /// policies (the order is total, so the position is unique), appended
  /// under XFactor. Returns the index it was placed at.
  std::size_t insert_queued(const Job& job, Time now);

  /// Establish priority order at time `now`: a no-op for static
  /// policies (insert_queued maintains it), an insertion repair of the
  /// previous pass's order for XFactor (restore_xfactor_order). Call
  /// before walking queue_ in priority order. Returns the first index
  /// whose job changed, queue_.size() when none did.
  std::size_t ensure_sorted(Time now);

  /// True when `job` fits into the momentarily free capacity on every
  /// axis (processors and burst buffer).
  [[nodiscard]] bool fits_now(const Job& job) const {
    return job.procs <= free_ && job.bb <= free_bb_;
  }

  /// Move `job` (which must be in queue_) to running_ at `now`; updates
  /// free_/free_bb_ and returns the job. Throws std::logic_error on
  /// under-capacity on either axis.
  Job commit_start(JobId id, Time now);
  /// commit_start for a job the caller keeps off queue_: the running-set
  /// and capacity half. Throws before changing anything.
  void commit_start_of(const Job& job, Time now);

  /// Remove a job that finished (or was killed) at `now` from running_
  /// and return its capacity, including the unused tail of its estimated
  /// rectangle in the running profile. Throws std::logic_error if the id
  /// is not running.
  RunningJob commit_finish(JobId id, Time now);

  /// Remove a queued job (one scan) and return it, so reservation
  /// holders can release the job's rectangle without re-searching.
  /// Throws std::logic_error if the id is not queued.
  Job take_queued(JobId id);
  /// take_queued for a known position; idx == queue_.size() throws the
  /// same "not queued" error, so callers can pass queue_index() as is.
  Job take_queued_at(std::size_t idx);

  /// Index of `id` within queue_, or queue_.size() if absent.
  [[nodiscard]] std::size_t queue_index(JobId id) const;

  /// The availability timeline of the running jobs and active outages:
  /// each running job occupies [now, est_end) and each outage
  /// [now, repair_at), on both axes. Schedulers that plan from scratch
  /// (kres, selective, slack's displacement trial, plan's full replans)
  /// start from a copy of it, so their guarantees respect downtime.
  /// Equal from `now` on to a rebuild from running_ and outages_;
  /// earlier instants are unspecified. `now` must not decrease between
  /// calls, and the reference is valid until the next start, finish or
  /// outage.
  [[nodiscard]] const MultiProfile& profile_from_running_and_outages(
      Time now) const;

 private:
  /// The live running profile: built from running_ and outages_ on the
  /// first profile_from_running_and_outages() call, then kept current
  /// by commit_start, commit_finish and node_down. Schedulers that never
  /// ask for it (nobackfill, EASY, conservative) never build it and pay
  /// one branch per start and finish.
  mutable std::optional<MultiProfile> running_profile_;
};

/// The scheduling strategies available from the factory.
enum class SchedulerKind : int {
  Fcfs = 0,          ///< priority order, no backfilling (baseline)
  Easy = 1,          ///< aggressive backfilling: one reservation (EASY)
  Conservative = 2,  ///< reservation for every queued job
  KReservation = 3,  ///< Maui-style reservation depth K     [extension]
  Selective = 4,     ///< reservation once slowdown > threshold (paper §6)
  Slack = 5,         ///< slack-bounded displacement (Talby-Feitelson) [ext]
  Plan = 6,          ///< every queued job replanned (Kopanski-Rzadca)
};

[[nodiscard]] std::string to_string(SchedulerKind kind);
[[nodiscard]] SchedulerKind scheduler_kind_from_string(const std::string&);

/// Extra knobs for the extension schedulers.
struct SchedulerExtras {
  int reservation_depth = 4;        ///< KReservation: number of guarantees
  double xfactor_threshold = 2.0;   ///< Selective: promote when exceeded
  /// Selective: adapt the promotion bar to the running mean slowdown of
  /// completed jobs (xfactor_threshold then acts as a floor).
  bool selective_adaptive = false;
  /// Slack: tolerated displacement per job, as a multiple of its own
  /// estimate (0 = conservative-strength guarantees).
  double slack_factor = 2.0;
};

/// Construct a scheduler by kind.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    SchedulerKind kind, const SchedulerConfig& config,
    const SchedulerExtras& extras = {});

}  // namespace bfsim::core
