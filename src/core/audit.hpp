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
#include <optional>
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
/// Cost: under the profile hook the auditor keeps its expected timeline
/// between cycles (DESIGN.md section 6). A finish, kill, cancel or
/// resubmit releases the job's rectangle from it at once, in
/// O(breakpoints); a start or node-down queues its rectangle until the
/// cycle end. Each on_cycle_end then looks up every reported
/// reservation once (as the reservation checks always did), moves only
/// the rectangles whose report changed, and compares the timeline with
/// the scheduler's profile in one O(breakpoints) walk. Anything unusual
/// falls back to rebuilding the timeline rectangle by rectangle, which
/// also re-seeds the kept one. Every cost is bounded by live state,
/// never by how many jobs the run has seen.
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
  /// Full rebuilds of the kept timeline so far (deterministic work
  /// counter): a clean run of a correct scheduler needs none.
  [[nodiscard]] std::uint64_t reseeds() const { return reseeds_; }
  /// The kept expected timeline, read-only for tests; nullptr unless the
  /// scheduler declares the profile hook. Right after on_cycle_end(now)
  /// it equals, for t >= now, the running, reported and outage
  /// rectangles reserved into a fresh MultiProfile.
  [[nodiscard]] const MultiProfile* timeline() const {
    return timeline_ ? &*timeline_ : nullptr;
  }

 private:
  /// A rectangle of the expected timeline: `procs` processors and `bb`
  /// GB over [start, end), clipped at each cycle's `now`.
  struct Rect {
    Time start;
    Time end;  ///< start + estimate, saturating
    int procs;
    int bb;
    friend bool operator==(const Rect&, const Rect&) = default;
  };

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
    /// The reservation rectangle this queued job holds in the kept
    /// timeline. It is held iff held_cycle >= seeded_cycle_: a re-seed
    /// voids every older hold at once, without visiting the records.
    Rect held{};
    /// The cycle whose report last placed or confirmed `held` (0: none).
    std::uint64_t held_cycle = 0;
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
  };

  void record(AuditViolation violation);
  /// Void the record's baselines if an outage registered since they were
  /// set (force majeure, see on_node_down). Call before reading them.
  void expire_baselines(JobRecord& rec);
  /// Index a job that starts running; its rectangle waits in pending_.
  void add_running(JobId id, const JobRecord& rec);
  /// Unindex a running job that stops and release its rectangle.
  void drop_running(JobId id, const JobRecord& rec, Time now);
  /// Release the reservation rectangle `rec` holds, if it holds one.
  void drop_held(JobRecord& rec, Time now);
  /// Release the part of `rect` at or after `now` from the kept timeline.
  void release_rect(const Rect& rect, Time now);
  /// Diff one reported reservation of a queued job against the rectangle
  /// its record holds: a new or moved one waits in pending_ (a moved
  /// one released first); a duplicate id or a negative demand leaves the
  /// timeline to the rebuild.
  void hold_reservation(JobRecord& rec, const AuditReservation& res,
                        Time now);
  void check_reservations(Time now,
                          const std::vector<AuditReservation>& reported);
  void check_profile(Time now, const std::vector<AuditReservation>& reported);
  /// Bring the kept timeline to `now`: drop its past and place the
  /// pending rectangles. False when it cannot stand for the expected
  /// timeline (an unreported holder, an overflow, an earlier fallback).
  bool place_pending(Time now);
  /// Compare the kept timeline with `actual` on [now, inf) and count the
  /// checks a point-by-point audit makes on agreement. False on any
  /// divergence; then nothing is counted.
  bool timeline_matches(Time now, const MultiProfile& actual);
  /// The profile cross-check the slow way: one MultiProfile::reserve per
  /// rectangle -- running jobs by id, then reservations as reported, then
  /// outages -- so an overflow names the rectangle that trips first. The
  /// rebuilt timeline re-seeds the kept one.
  void check_profile_by_reserve(Time now,
                                const std::vector<AuditReservation>& reported,
                                const MultiProfile& actual);
  /// Adopt `rebuilt` as the kept timeline and make exactly the reported
  /// jobs its reservation holders; leaves the timeline for the next
  /// rebuild when some reported rectangle has no queued job to hold it.
  void reseed(MultiProfile&& rebuilt,
              const std::vector<AuditReservation>& reported);
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
  /// Jobs whose record is running, in no particular order. Kept only
  /// under the profile hook, for the rebuild.
  std::vector<RunningJob> running_;
  /// The expected timeline kept between cycles (profile hook only): the
  /// running, held reservation and active outage rectangles. Exact on
  /// [now, inf) after each cycle end while timeline_ok_.
  std::optional<MultiProfile> timeline_;
  /// False once the kept timeline may differ from the expected one: the
  /// next cycle end rebuilds it instead of trusting it.
  bool timeline_ok_ = true;
  std::vector<Rect> pending_;  ///< placed at the cycle end, in order
  /// Stamp of the current cycle; a re-seed takes a fresh one.
  std::uint64_t cycle_ = 1;
  std::uint64_t seeded_cycle_ = 1;  ///< holds stamped before it are void
  std::size_t holders_ = 0;   ///< queued records holding a rectangle
  std::size_t reported_ = 0;  ///< of them, diffed in this cycle's report
  std::uint64_t reseeds_ = 0;
  /// EASY: the head job currently holding the single pinned reservation.
  JobId pinned_head_ = workload::kInvalidJob;
  Time pinned_start_ = sim::kNoTime;
  std::uint64_t checks_ = 0;
  std::vector<AuditViolation> violations_;
};

}  // namespace bfsim::core
