// bfsim -- dense per-job lookup tables for the scheduler hot path.
//
// Trace job ids are dense indices (run_simulation enforces id ==
// position), so the id-keyed maps the schedulers consult on every event
// -- reservation starts, the running set -- do not need hashing at all.
// These tables trade the node-based unordered_map (a malloc per insert,
// a hash+chain walk per lookup) for flat vectors indexed by JobId: every
// operation is an array access, inserts never allocate past the
// high-water mark, and iteration over the running set is a contiguous
// scan. Replacing the hash maps with these tables is worth roughly 20%
// of conservative-simulation wall time on the perf smoke workload.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/types.hpp"

namespace bfsim::core {

/// Dense JobId -> Time map. sim::kNoTime is the "absent" sentinel and
/// therefore not a storable value (no scheduler stores "no time" as a
/// reservation start or deadline).
class TimeByJob {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool contains(JobId id) const {
    return get(id) != sim::kNoTime;
  }

  /// Stored time, or sim::kNoTime when absent. The no-throw lookup the
  /// per-event validation paths use.
  [[nodiscard]] Time get(JobId id) const {
    return id < times_.size() ? times_[id] : sim::kNoTime;
  }

  /// Stored time; throws std::out_of_range when absent (the same
  /// contract as unordered_map::at, which callers rely on to surface
  /// bookkeeping bugs).
  [[nodiscard]] Time at(JobId id) const {
    if (!contains(id)) throw std::out_of_range("TimeByJob::at: absent job");
    return times_[id];
  }

  /// Insert or overwrite.
  void set(JobId id, Time t) {
    if (t == sim::kNoTime)
      throw std::invalid_argument("TimeByJob::set: kNoTime is the sentinel");
    if (id >= times_.size()) times_.resize(id + 1, sim::kNoTime);
    if (times_[id] == sim::kNoTime) ++count_;
    times_[id] = t;
  }

  void erase(JobId id) {
    if (id < times_.size() && times_[id] != sim::kNoTime) {
      times_[id] = sim::kNoTime;
      --count_;
    }
  }

 private:
  std::vector<Time> times_;  ///< indexed by JobId; kNoTime = absent
  std::size_t count_ = 0;
};

/// Slot map for the running set: RunningJob records packed in a vector
/// (contiguous iteration for profile rebuilds) with a JobId -> slot
/// index on the side. Removal swap-pops, so iteration order is an
/// implementation detail -- fine for every user, since profiles built
/// from the running set are sums of per-job rectangles and commute.
class RunningTable {
 public:
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }

  /// Packed records for iteration (unspecified order).
  [[nodiscard]] const std::vector<RunningJob>& jobs() const { return jobs_; }

  [[nodiscard]] bool contains(JobId id) const {
    return id < slot_.size() && slot_[id] != kNoSlot;
  }

  /// Insert a record for `id`; the id must not already be running.
  void insert(JobId id, const RunningJob& rj) {
    if (contains(id))
      throw std::logic_error("RunningTable::insert: job already running");
    if (id >= slot_.size()) slot_.resize(id + 1, kNoSlot);
    slot_[id] = static_cast<std::uint32_t>(jobs_.size());
    jobs_.push_back(rj);
  }

  /// Remove and return `id`'s record; throws std::logic_error when the
  /// job is not running (a driver/scheduler accounting bug).
  RunningJob take(JobId id) {
    if (!contains(id))
      throw std::logic_error("RunningTable::take: job is not running");
    const std::uint32_t slot = slot_[id];
    RunningJob out = jobs_[slot];
    const JobId moved = jobs_.back().job.id;
    jobs_[slot] = jobs_.back();
    jobs_.pop_back();
    slot_[moved] = slot;  // self-assignment when taking the last record
    slot_[id] = kNoSlot;
    return out;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::vector<RunningJob> jobs_;
  std::vector<std::uint32_t> slot_;  ///< indexed by JobId
};

}  // namespace bfsim::core
