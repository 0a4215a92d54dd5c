#include "core/priority.hpp"

#include <algorithm>
#include <stdexcept>

namespace bfsim::core {

std::string to_string(PriorityPolicy policy) {
  switch (policy) {
    case PriorityPolicy::Fcfs: return "fcfs";
    case PriorityPolicy::Sjf: return "sjf";
    case PriorityPolicy::XFactor: return "xfactor";
    case PriorityPolicy::Ljf: return "ljf";
    case PriorityPolicy::Narrowest: return "narrowest";
    case PriorityPolicy::Widest: return "widest";
  }
  return "?";
}

PriorityPolicy priority_from_string(const std::string& name) {
  if (name == "fcfs") return PriorityPolicy::Fcfs;
  if (name == "sjf") return PriorityPolicy::Sjf;
  if (name == "xfactor" || name == "xf") return PriorityPolicy::XFactor;
  if (name == "ljf") return PriorityPolicy::Ljf;
  if (name == "narrowest") return PriorityPolicy::Narrowest;
  if (name == "widest") return PriorityPolicy::Widest;
  throw std::invalid_argument("unknown priority policy '" + name + "'");
}

double xfactor(const Job& job, Time now) {
  const auto est = static_cast<double>(std::max<Time>(job.estimate, 1));
  const auto wait =
      static_cast<double>(sim::checked::elapsed(now, job.submit));
  return (wait + est) / est;
}

bool PriorityOrder::operator()(const Job& a, const Job& b) const {
  const auto arrival_order = [](const Job& x, const Job& y) {
    if (x.submit != y.submit) return x.submit < y.submit;
    return x.id < y.id;
  };
  switch (policy_) {
    case PriorityPolicy::Fcfs:
      break;  // pure arrival order
    case PriorityPolicy::Sjf:
      if (a.estimate != b.estimate) return a.estimate < b.estimate;
      break;
    case PriorityPolicy::Ljf:
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      break;
    case PriorityPolicy::XFactor:
      return xfactor_precedes(xfactor(a, now_), a, xfactor(b, now_), b);
    case PriorityPolicy::Narrowest:
      if (a.procs != b.procs) return a.procs < b.procs;
      break;
    case PriorityPolicy::Widest:
      if (a.procs != b.procs) return a.procs > b.procs;
      break;
  }
  return arrival_order(a, b);
}

void sort_by_priority(std::vector<Job>& queue, PriorityPolicy policy,
                      Time now) {
  std::stable_sort(queue.begin(), queue.end(), PriorityOrder{policy, now});
}

void sort_by_priority(Job* first, Job* last, PriorityPolicy policy, Time now) {
  std::stable_sort(first, last, PriorityOrder{policy, now});
}

std::size_t restore_xfactor_order(Job* first, Job* last, Time now,
                                  std::vector<double>& keys) {
  // The order on (xfactor desc, submit, id) is total, so any correct
  // sort yields stable_sort's permutation; comparing the same cached
  // doubles PriorityOrder would compute keeps the two bit-identical.
  // Between passes two jobs' expansion factors are lines in time that
  // cross at most once, so a queue the last pass left sorted is nearly
  // sorted: appended arrivals and the few pairs that crossed.
  const auto n = static_cast<std::size_t>(last - first);
  keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = xfactor(first[i], now);
  // Slots below every insertion point never change.
  std::size_t first_moved = n;
  for (std::size_t i = 1; i < n; ++i) {
    if (!xfactor_precedes(keys[i], first[i], keys[i - 1], first[i - 1]))
      continue;
    const Job job = first[i];
    const double key = keys[i];
    std::size_t j = i;
    do {
      first[j] = first[j - 1];
      keys[j] = keys[j - 1];
      --j;
    } while (j > 0 && xfactor_precedes(key, job, keys[j - 1], first[j - 1]));
    first[j] = job;
    keys[j] = key;
    first_moved = std::min(first_moved, j);
  }
  return first_moved;
}

}  // namespace bfsim::core
