// bfsim -- conservative backfilling.
//
// Every job receives a start-time reservation the moment it enters the
// system (Mu'alem & Feitelson 2001): a new arrival is anchored at the
// earliest hole in the availability profile that fits its (procs x
// estimate) rectangle without disturbing any existing guarantee.
//
// When a job finishes earlier than its estimate, the freed rectangle is
// returned to the profile and the queue is *compressed*: each queued job,
// visited in priority order, is unreserved and re-anchored -- its start
// can only move earlier, so guarantees are never violated. The visit
// order is the only place the priority policy enters, which is exactly
// why all priority policies produce the identical schedule when user
// estimates are exact (paper Section 4.1): without early completions no
// new holes ever appear and compression is a no-op.
#pragma once

#include <cstdint>

#include "core/job_table.hpp"
#include "core/multi_profile.hpp"
#include "core/reservation_heap.hpp"
#include "core/scheduler.hpp"

namespace bfsim::core {

/// Not final: SlackScheduler keeps this reservation machinery and
/// overrides only arrival (displacement) and the outage re-base;
/// PlanScheduler keeps the profile, the reservations, the due heap, the
/// starts and the kill hook, and replaces the other event hooks.
class ConservativeScheduler : public SchedulerBase {
 public:
  explicit ConservativeScheduler(SchedulerConfig config);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool job_killed(JobId id, Time now) override;
  bool node_down(const sim::Outage& outage, Time now) override;
  bool node_up(const sim::Outage& outage, Time now) override;
  [[nodiscard]] Time next_wakeup() override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;

  /// Guaranteed start time of a queued job (for tests / reporting).
  /// Throws std::out_of_range if the job is not queued.
  [[nodiscard]] Time reservation_of(JobId id) const {
    return reservations_.at(id);
  }

  /// The availability profile (running jobs + all reservations).
  [[nodiscard]] const MultiProfile& profile() const { return profile_; }

  /// Compression work so far (deterministic counters): read-only probes
  /// of a queued job's earlier anchor, and probes that moved the job.
  [[nodiscard]] std::uint64_t compression_probes() const {
    return compression_probes_;
  }
  [[nodiscard]] std::uint64_t compression_moves() const {
    return compression_moves_;
  }
  /// Jobs compression passed over without a probe: wider, on some axis,
  /// than any capacity that appeared since they were last anchored.
  [[nodiscard]] std::uint64_t compression_skips() const {
    return compression_skips_;
  }

  // Auditor introspection: conservative holds a guarantee for every
  // queued job, never delays one, and keeps a persistent profile.
  [[nodiscard]] AuditHooks audit_hooks() const override {
    return {.profile = true,
            .reservations = true,
            .monotone_reservations = true};
  }
  [[nodiscard]] const MultiProfile* audit_profile() const override {
    return &profile_;
  }
  [[nodiscard]] std::vector<AuditReservation> audit_reservations()
      const override;

 protected:
  MultiProfile profile_;
  TimeByJob reservations_;  ///< queued job -> guaranteed start
  /// Earliest guaranteed start, maintained alongside reservations_ so
  /// neither the due check nor next_wakeup() scans the queue.
  ReservationHeap due_;

  /// Clear due_ and push one entry per queued job: drops the stale
  /// entries of reservations that moved wholesale.
  void reseed_due();

 private:
  std::uint64_t compression_probes_ = 0;
  std::uint64_t compression_moves_ = 0;
  std::uint64_t compression_skips_ = 0;
  /// Pass-time working buffers, reused so select_starts never allocates
  /// in steady state.
  std::vector<JobId> due_scratch_;
  std::vector<JobId> order_scratch_;

  /// Re-anchor queued jobs in priority order after capacity was freed
  /// over [hole_begin, hole_end) (hole_begin >= now), iterating until
  /// no reservation moves. Jobs whose reservation already starts
  /// at-or-before the earliest still-unconsidered hole, and jobs wider
  /// than any capacity freed since they were last anchored, are
  /// skipped -- they provably cannot move (see the implementation
  /// comment). Every other candidate is probed read-only
  /// (MultiProfile::earlier_anchor); only one the probe finds an
  /// earlier anchor for is released and re-placed there. On return
  /// every reservation is at its true earliest anchor, which is what
  /// makes skipping the whole pass on on-time completions sound.
  void compress(Time now, Time hole_begin, Time hole_end);
};

}  // namespace bfsim::core
