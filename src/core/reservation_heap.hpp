// bfsim -- lazy-deletion min-heap over reservation start times.
//
// The reservation-holding schedulers (conservative, slack, plan) used to scan
// their whole queue every cycle to find guarantees coming due. This heap
// answers "what is the earliest guaranteed start?" in O(log n): an entry
// is pushed whenever a reservation is assigned or moved, and entries
// invalidated since (the job started, was cancelled, or was re-anchored)
// are dropped lazily by validating the top against the scheduler's
// authoritative id -> start map.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "core/job_table.hpp"
#include "core/types.hpp"

namespace bfsim::core {

class ReservationHeap {
 public:
  /// Record that `id`'s guaranteed start is (now) `start`. Superseded
  /// entries for the same job need not be removed; they go stale.
  void push(Time start, JobId id) { heap_.push({start, id}); }

  void clear() { heap_ = {}; }

  /// Entries held, stale ones included.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest start held by any job still present in `reservations`
  /// with a matching time, or sim::kNoTime when none. Prunes stale
  /// entries from the top as a side effect.
  [[nodiscard]] Time earliest(const TimeByJob& reservations) {
    while (!heap_.empty()) {
      const Entry& top = heap_.top();
      if (reservations.get(top.id) == top.start) return top.start;
      heap_.pop();
    }
    return sim::kNoTime;
  }

  /// Pop every valid entry with start == `now`, appending the ids to
  /// `due` in unspecified order (the caller re-imposes priority order).
  /// Appends so callers can reuse one scratch buffer across passes.
  void take_due(Time now, const TimeByJob& reservations,
                std::vector<JobId>& due) {
    while (earliest(reservations) == now) {
      const JobId id = heap_.top().id;
      heap_.pop();
      if (std::find(due.begin(), due.end(), id) == due.end())
        due.push_back(id);
    }
  }

 private:
  struct Entry {
    Time start;
    JobId id;
    [[nodiscard]] bool operator>(const Entry& other) const {
      if (start != other.start) return start > other.start;
      return id > other.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
};

}  // namespace bfsim::core
