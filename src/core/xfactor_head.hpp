// bfsim -- the head of the XFactor order, kept by a kinetic tournament.
//
// Without backfilling a pass only asks which queued job comes first in
// XFactor order right now. Re-deriving the whole order for that costs
// one expansion factor per queued job per pass (restore_xfactor_order),
// which grows with the backlog. Each job's factor is a line in time,
// 1 + (t - submit) / est, so two jobs' relative order changes only where
// their lines cross. XFactorHead keeps a lazy kinetic tournament over
// the queued jobs (Basch, Guibas & Hershberger, SODA 1997): a complete
// binary tree over job slots whose internal nodes each hold the winner
// of their subtree and a certificate, a lower bound on the first instant
// at which the loser of their match could overtake the winner. A query
// at `now` replays only the matches whose certificate came due or whose
// subtree changed, so the head costs O(log q) per insert and erase plus
// O(log q) per crossing, instead of q factors per pass.
//
// Exactness: matches compare with PriorityOrder, i.e. the very doubles
// xfactor() computes with ties broken by (submit, id), so the head is
// the front of sort_by_priority(queue, XFactor, now) bit for bit.
// Certificates only decide when a match is replayed, never its outcome;
// they stay lower bounds under double rounding (DESIGN.md section 11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace bfsim::core {

class XFactorHead {
 public:
  /// Add a queued job at `now` (job.submit <= now for the factor to be
  /// a line; a later submit is handled, only less cheaply). Throws
  /// std::logic_error when the id is already present.
  void insert(const Job& job, Time now);

  /// Remove a present job at `now`. Throws std::logic_error when the id
  /// is absent.
  void erase(JobId id, Time now);

  /// The job first in XFactor order at `now`, or nullptr when empty.
  /// `now` must not decrease across insert, erase and head calls. The
  /// pointer is valid until the next insert or erase.
  [[nodiscard]] const Job* head(Time now);

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Matches played so far: every recomputation of an internal node's
  /// winner and certificate (a deterministic work counter).
  [[nodiscard]] std::uint64_t node_updates() const { return node_updates_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    Time due = sim::kTimeMax;   ///< earliest certificate in the subtree
    Time cert = sim::kTimeMax;  ///< this node's match; kTimeMax = never
    std::uint32_t winner = kNone;  ///< slot of the subtree's first job
  };

  std::vector<Job> jobs_;               ///< indexed by slot
  std::vector<std::uint32_t> vacant_;   ///< free slots, popped from the back
  std::vector<std::uint32_t> slot_of_;  ///< indexed by JobId; kNone = absent
  /// 1-based heap layout: node v has children 2v and 2v + 1, and slot s
  /// is leaf leaves_ + s. Leaves never carry a certificate.
  std::vector<Node> nodes_;
  std::size_t leaves_ = 0;  ///< a power of two, 0 before the first insert
  std::size_t size_ = 0;
  std::uint64_t node_updates_ = 0;

  /// Recompute internal node v's match from its children's winners at
  /// `now`; returns whether its winner changed.
  bool play(std::size_t v, Time now);
  /// The least certificate in v's subtree, from v's own and its
  /// children's.
  [[nodiscard]] Time subtree_due(std::size_t v) const;
  /// Replay every match under v whose certificate came due by `now`,
  /// children first; returns whether v's winner changed.
  bool refresh(std::size_t v, Time now);
  /// After the winner of `leaf` changed: replay its ancestors while
  /// their winner changes, then carry the due times up to the root.
  void repair_path(std::size_t leaf, Time now);
  /// Double the slot count and rebuild every match at `now`.
  void grow(Time now);
};

}  // namespace bfsim::core
