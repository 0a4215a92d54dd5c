// bfsim -- queue priority policies.
//
// The priority policy orders the idle queue: it decides which job is
// "next" (the reservation holder under EASY, the compression order under
// conservative). The paper studies FCFS, SJF and XFactor; we add a few
// width-based orders for ablations.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace bfsim::core {

enum class PriorityPolicy : int {
  Fcfs = 0,      ///< earliest submit first (priority = wait time)
  Sjf = 1,       ///< shortest user-estimated runtime first
  XFactor = 2,   ///< largest expansion factor (wait + est) / est first
  Ljf = 3,       ///< longest estimated runtime first      [ablation]
  Narrowest = 4, ///< fewest requested processors first    [ablation]
  Widest = 5,    ///< most requested processors first      [ablation]
};

/// The three policies evaluated in the paper.
inline constexpr PriorityPolicy kPaperPolicies[] = {
    PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor};

[[nodiscard]] std::string to_string(PriorityPolicy policy);

/// Parse "fcfs" / "sjf" / "xfactor" / "ljf" / "narrowest" / "widest"
/// (case-sensitive). Throws std::invalid_argument on unknown names.
[[nodiscard]] PriorityPolicy priority_from_string(const std::string& name);

/// Expansion factor of a waiting job at time `now`:
/// (wait + estimated runtime) / estimated runtime = 1 + wait / estimate.
[[nodiscard]] double xfactor(const Job& job, Time now);

/// XFactor order on precomputed keys: `a` with factor `ka` comes before
/// `b` with factor `kb`. The factors are xfactor()'s doubles; ties go to
/// the earlier submit, then the lower id -- exactly PriorityOrder's
/// XFactor order, for callers that reuse each key.
[[nodiscard]] inline bool xfactor_precedes(double ka, const Job& a, double kb,
                                           const Job& b) {
  if (ka != kb) return ka > kb;
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

/// Strict-weak-order comparator: a() before b() means a has priority.
/// All policies tie-break by (submit, id) so the order is total and the
/// resulting schedules are deterministic. XFactor is time-dependent:
/// construct with the current clock; a queue kept in XFactor order is
/// brought up to date at each pass by restore_xfactor_order.
class PriorityOrder {
 public:
  PriorityOrder(PriorityPolicy policy, Time now)
      : policy_(policy), now_(now) {}

  [[nodiscard]] bool operator()(const Job& a, const Job& b) const;

 private:
  PriorityPolicy policy_;
  Time now_;
};

/// Stable-sort `queue` into priority order at time `now`.
void sort_by_priority(std::vector<Job>& queue, PriorityPolicy policy,
                      Time now);

/// Range form for containers exposing contiguous Job storage.
void sort_by_priority(Job* first, Job* last, PriorityPolicy policy, Time now);

/// Put [first, last) into XFactor priority order at `now`: the same
/// permutation as sort_by_priority(first, last, XFactor, now), found by
/// an insertion pass over keys computed once per job into `keys`
/// (caller-owned scratch, overwritten). Costs O(n) divisions plus one
/// shift per out-of-order pair, so a queue left in order by the
/// previous pass costs O(n + pairs whose order changed since). Returns
/// the first index whose job changed, or last - first when none did.
std::size_t restore_xfactor_order(Job* first, Job* last, Time now,
                                  std::vector<double>& keys);

}  // namespace bfsim::core
