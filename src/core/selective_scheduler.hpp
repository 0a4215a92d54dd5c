// bfsim -- selective backfilling (the paper's Section 6 future work).
//
// "Instead of the non-selective nature of reservations with both
// conservative and aggressive backfilling ... jobs do not get a
// reservation until their expected slowdown exceeds some threshold,
// whereupon they get a reservation."
//
// Jobs enter the system unprotected and may backfill greedily; once a
// job's expansion factor (wait + estimate) / estimate crosses the
// configured threshold it is promoted -- permanently -- into the reserved
// set, and subsequent backfilling must respect its guarantee. With a
// judicious threshold few jobs hold reservations at any moment, yet the
// starving ones (typically wide jobs under EASY) get protected, curing
// the worst-case turnaround blow-up without conservative's backfill
// lockout. (Developed fully in Srinivasan et al., "Selective Reservation
// Strategies for Backfill Job Scheduling", JSSPP 2002.)
//
// Promotion is clock-driven, but no event scans the queue for it: a job
// cannot reach the promotion bar before its expansion factor reaches the
// floor threshold, so each queued job waits in a min-heap keyed by a
// lower bound of that crossing instant, and only jobs whose bound has
// passed are checked exactly (see promote_due).
#pragma once

#include <cstdint>
#include <vector>

#include "core/scheduler.hpp"

namespace bfsim::core {

class SelectiveScheduler final : public SchedulerBase {
 public:
  /// How the promotion threshold is chosen.
  enum class Mode {
    /// Fixed expansion-factor threshold, given at construction.
    FixedThreshold,
    /// Adaptive (Srinivasan et al., JSSPP 2002): promote a job once its
    /// expansion factor exceeds the running *average bounded slowdown*
    /// of the jobs completed so far (never below the fixed threshold,
    /// which acts as a floor). As service degrades the bar rises with
    /// it, keeping the reserved set small under benign load and
    /// protective under stress.
    AdaptiveMeanSlowdown,
  };

  /// `xfactor_threshold` >= 1; lower values promote sooner (1.0 would
  /// promote every job on arrival, approximating conservative).
  SelectiveScheduler(SchedulerConfig config, double xfactor_threshold,
                     Mode mode = Mode::FixedThreshold);

  bool job_submitted(const Job& job, Time now) override;
  bool job_finished(JobId id, Time now) override;
  bool job_cancelled(JobId id, Time now) override;
  bool job_killed(JobId id, Time now) override;
  using Scheduler::select_starts;
  void select_starts(Time now, std::vector<Job>& out) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] Mode mode() const { return mode_; }
  /// Queued jobs holding a guarantee.
  [[nodiscard]] std::size_t promoted_count() const { return promoted_; }
  /// Exact expansion-factor comparisons made so far (a deterministic
  /// work counter).
  [[nodiscard]] std::uint64_t promotion_checks() const {
    return promotion_checks_;
  }

  /// The threshold in force right now (equals threshold() in fixed mode;
  /// max(threshold, mean completed slowdown) in adaptive mode).
  [[nodiscard]] double effective_threshold() const;

 private:
  /// Where a job id stands in the promotion pipeline.
  enum class Stage : std::uint8_t {
    Absent,    ///< not queued (never submitted, running, done, cancelled)
    Waiting,   ///< queued, its floor crossing still ahead (in crossings_)
    Pending,   ///< queued, past the crossing bound, below the bar
    Promoted,  ///< queued, holding a guarantee
  };
  /// Per-id promotion state. `generation` counts the job's submissions,
  /// so heap and pending entries left behind by an earlier submission of
  /// a requeued job are told apart from current ones.
  struct Slot {
    std::uint32_t generation = 0;
    Stage stage = Stage::Absent;
  };
  /// A queued job awaiting its exact promotion check from `at` on.
  struct Crossing {
    Time at;  ///< lower bound of the instant xfactor reaches threshold_
    std::uint32_t generation;
    Job job;
  };

  double threshold_;
  Mode mode_;
  std::vector<Slot> slots_;  ///< indexed by JobId
  std::size_t promoted_ = 0;
  std::uint64_t promotion_checks_ = 0;
  /// Min-heap on `at` of Waiting jobs, with stale entries of started,
  /// cancelled and re-submitted ones dropped lazily (and purged once
  /// they outnumber the queue).
  std::vector<Crossing> crossings_;
  /// Jobs popped from crossings_ whose exact check has not passed yet.
  std::vector<Crossing> pending_;

  /// Promote every queued job whose expansion factor has crossed the
  /// bar (sticky). Called from each event hook -- promotion depends on
  /// the clock, so it must be evaluated at every event time, pass or
  /// not. Returns true when a newly promoted job could start now.
  bool promote_due(Time now);
  /// Enter a submitted job into the pipeline.
  void track(const Job& job);
  /// Take a starting or cancelled job out of it; returns whether it
  /// held a guarantee.
  bool untrack(JobId id);
  [[nodiscard]] bool is_promoted(JobId id) const {
    return id < slots_.size() && slots_[id].stage == Stage::Promoted;
  }
  /// The entry is its job's current submission, at `stage`.
  [[nodiscard]] bool current(const Crossing& c, Stage stage) const {
    const Slot& slot = slots_[c.job.id];
    return slot.stage == stage && slot.generation == c.generation;
  }
  // Adaptive mode: running mean of completed jobs' bounded slowdown.
  double completed_slowdown_sum_ = 0.0;
  std::size_t completed_jobs_ = 0;
  /// Pass-time working buffers, reused so select_starts does not
  /// allocate them per pass: the pass's profile and its starts.
  MultiProfile profile_;
  std::vector<JobId> start_scratch_;
};

}  // namespace bfsim::core
