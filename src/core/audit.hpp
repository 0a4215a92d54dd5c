// bfsim -- the runtime schedule-invariant auditor.
//
// A characterization study is only as good as the feasibility of every
// simulated schedule: a silent capacity overflow or a stale reservation
// produces plausible-looking metrics that are simply wrong. The
// ScheduleAuditor re-derives machine occupancy from the driver's event
// stream -- independently of the scheduler's own bookkeeping -- and
// checks, at every event:
//
//   * capacity      -- running jobs never exceed the machine, on any
//                      resource axis (processors and burst buffer);
//   * causality     -- no job starts before its submission, starts
//                      twice, finishes while not running, or runs past
//                      its wall-clock limit;
//   * conservative  -- a guaranteed start never moves later, and no job
//                      starts later than its first-assigned reservation;
//   * EASY          -- the queue head's pinned reservation is never
//                      delayed by a backfill while it stays at the head;
//   * profile       -- the scheduler's availability profile exactly
//                      equals the occupancy implied by running jobs plus
//                      reported reservations, checked independently on
//                      every resource axis (catching staleness at the
//                      moment of divergence, not at the final metrics).
//
// Which policy-specific checks apply is declared by the scheduler via
// Scheduler::audit_hooks(). The auditor is opt-in: the simulation driver
// attaches one when SimulationOptions::audit is set (fatal: the first
// violation throws), and bench binaries expose it behind --audit.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/multi_profile.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"

namespace bfsim::core {

/// One detected invariant violation, with enough structure for tests to
/// assert on the exact failure (not just a message).
struct AuditViolation {
  /// Stable machine-readable tag: "capacity", "capacity-bb",
  /// "start-before-submit",
  /// "start-after-cancel", "double-start", "start-unknown-job",
  /// "finish-not-running", "finish-before-start", "finish-past-limit",
  /// "cancel-not-queued", "reservation-unknown-job",
  /// "reservation-in-past", "guarantee-delayed",
  /// "head-guarantee-delayed", "profile-divergence", "kill-not-running",
  /// "requeue-not-killed", "outage-capacity", "repair-unknown-outage".
  std::string invariant;
  Time when = 0;                      ///< event time of the violation
  JobId job = workload::kInvalidJob;  ///< offending job, if any
  std::int64_t expected = 0;          ///< invariant-specific bound
  std::int64_t actual = 0;            ///< observed value
  std::string detail;                 ///< human-readable diagnostic

  [[nodiscard]] std::string to_string() const;
};

struct AuditOptions {
  /// Throw std::logic_error at the first violation (how tests run).
  /// When false, violations accumulate and the run continues -- the mode
  /// the auditor's own mutation tests use.
  bool fatal = true;
};

/// Observes one simulation run of one scheduler. The driver owns the
/// call discipline: on_submitted/on_cancelled/on_finished per event,
/// on_started per job the scheduler launched, then on_cycle_end after
/// each same-time batch has been fully scheduled.
///
/// Cost: each event is O(1) expected, plus O(running) to keep the
/// running-job index sorted under the profile hook; each on_cycle_end is
/// O(running + reserved log reserved + profile breakpoints) -- bounded by
/// live state, never by how many jobs the run has seen.
class ScheduleAuditor {
 public:
  explicit ScheduleAuditor(const Scheduler& scheduler,
                           const AuditOptions& options = {});

  void on_submitted(const Job& job, Time now);
  void on_cancelled(JobId id, Time now);
  void on_finished(JobId id, Time now);
  void on_started(const Job& job, Time now);
  void on_cycle_end(Time now);

  // Availability events (core/decision_core.hpp's outage discipline:
  // every victim's on_killed precedes the on_node_down that caused it,
  // and each victim's on_requeued follows it).
  /// A running job's current run is voided by an outage. The job may
  /// legally start again later (after on_requeued).
  void on_killed(JobId id, Time now);
  /// A killed job re-enters the queue, possibly with a policy-adjusted
  /// estimate; its original submit time rides along in `job`.
  void on_requeued(const Job& job, Time now);
  /// Capacity leaves service until the matching on_node_up. Verifies the
  /// kills already freed the outage's demand, then audits all later
  /// capacity against the degraded machine. Also voids every monotone
  /// guarantee baseline (in O(1), by starting a new outage epoch): an
  /// outage legally delays guarantees (force majeure), so pre-outage
  /// reservations stop binding.
  void on_node_down(const sim::Outage& outage, Time now);
  void on_node_up(const sim::Outage& outage, Time now);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const {
    return violations_;
  }
  /// Total number of individual invariant checks performed (diagnostics:
  /// an auditor that checked nothing proves nothing).
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  /// Everything the auditor knows about one job, built from events only.
  struct JobRecord {
    Time submit = sim::kNoTime;
    Time estimate = 0;
    int procs = 0;
    int bb = 0;
    Time start = sim::kNoTime;       ///< kNoTime while queued
    /// Monotone guarantee baselines; void once an outage registers after
    /// `outage_epoch` (expire_baselines before reading them).
    Time first_reservation = sim::kNoTime;
    Time last_reservation = sim::kNoTime;
    std::uint64_t outage_epoch = 0;
    bool running = false;
    bool finished = false;
    bool cancelled = false;
  };

  /// A running job's rectangle [now, end) in the expected timeline.
  struct RunningJob {
    Time end;  ///< start + estimate, saturating
    JobId id;
    int procs;
    int bb;
    /// Sweep order: by end, ties by id.
    friend bool operator<(const RunningJob& a, const RunningJob& b) {
      return a.end != b.end ? a.end < b.end : a.id < b.id;
    }
  };

  /// One demand change of the expected timeline: +demand where a
  /// rectangle begins, -demand where it ends.
  struct Delta {
    Time at;
    int procs;
    int bb;
  };

  void record(AuditViolation violation);
  /// Void the record's baselines if an outage registered since they were
  /// set (force majeure, see on_node_down). Call before reading them.
  void expire_baselines(JobRecord& rec);
  void add_running(JobId id, const JobRecord& rec);
  void drop_running(JobId id, const JobRecord& rec);
  void check_reservations(Time now,
                          const std::vector<AuditReservation>& reported);
  void check_profile(Time now, const std::vector<AuditReservation>& reported);
  /// Sweep running + reserved + outage rectangles into expected_, in
  /// MultiProfile's canonical coalesced form. False exactly when
  /// MultiProfile::reserve would throw on those rectangles.
  bool build_expected(Time now, const std::vector<AuditReservation>& reported);
  /// The profile cross-check the slow way: one MultiProfile::reserve per
  /// rectangle -- running jobs by id, then reservations as reported, then
  /// outages -- so an overflow names the rectangle that trips first.
  void check_profile_by_reserve(Time now,
                                const std::vector<AuditReservation>& reported,
                                const MultiProfile& actual);
  /// The ordered scan: `now`, then every expected breakpoint >= now, then
  /// every actual one; records the first divergence found.
  void scan_for_divergence(
      Time now, const std::vector<MultiProfile::Segment>& expected,
      const MultiProfile& actual);

  const Scheduler* scheduler_;
  AuditOptions options_;
  AuditHooks hooks_;
  int total_procs_;
  int total_bb_;
  int busy_ = 0;  ///< processors held by running jobs (auditor's count)
  int busy_bb_ = 0;  ///< burst-buffer GB held by running jobs
  int down_ = 0;  ///< processors lost to active outages (auditor's count)
  int down_bb_ = 0;  ///< burst-buffer GB lost to active outages
  std::vector<sim::Outage> active_outages_;  ///< few at a time; linear scan
  std::uint64_t outage_epoch_ = 0;  ///< node-down events so far
  std::unordered_map<JobId, JobRecord> jobs_;
  /// Jobs whose record is running, sorted by (end, id): the running
  /// rectangles' end breakpoints arrive already in sweep order. Kept only
  /// under the profile hook, its sole reader.
  std::vector<RunningJob> running_;
  std::vector<Delta> deltas_;                      ///< per-cycle scratch
  std::vector<MultiProfile::Segment> expected_;   ///< per-cycle scratch
  /// EASY: the head job currently holding the single pinned reservation.
  JobId pinned_head_ = workload::kInvalidJob;
  Time pinned_start_ = sim::kNoTime;
  std::uint64_t checks_ = 0;
  std::vector<AuditViolation> violations_;
};

}  // namespace bfsim::core
