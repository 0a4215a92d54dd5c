// bfsim -- the multi-resource availability profile: free capacity on
// every resource axis as a function of future time.
//
// `core::Profile` tracks one axis (processors). Burst-buffer-aware
// scheduling (Kopanski & Rzadca, arXiv:2109.00082 / 2111.10200) needs a
// second shared axis: jobs demand processors *and* burst-buffer
// gigabytes, and a reservation must hold both simultaneously over its
// whole window. MultiProfile keeps Profile's design wholesale -- flat
// sorted coalesced vector of breakpoints, fused find_and_reserve,
// per-width anchor-hint cache, saturating time arithmetic -- and widens
// each segment to carry free capacity per axis.
//
// Axis-0 compatibility contract: a MultiProfile constructed with
// total_bb == 0 and driven with bb == 0 demands behaves byte-identically
// to a Profile of the same width -- same segments, same anchors, same
// hint cache evolution. The multi-resource differential suite proves it.
//
// Hint-cache soundness across axes: certificates are keyed by processor
// width only. *Consulting* them is sound for any burst-buffer demand (no
// instant with procs free >= width ≤ the query's procs-need means no
// joint anchor there either), but *recording* from a search with bb > 0
// would be unsound -- the advance loop also skips segments blocked only
// on the buffer axis, which may still have enough processors. Searches
// therefore record certificates only when bb == 0; this is also exactly
// what keeps the bb == 0 query path identical to Profile's.
#pragma once

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace bfsim::core {

/// Piecewise-constant free-capacity timeline over [0, +inf) on two
/// resource axes: processors and burst-buffer units (GB).
///
/// Invariants (checked by check_invariants, enforced by exceptions on
/// reserve/release): 0 <= procs_free(t) <= total_procs() and
/// 0 <= bb_free(t) <= total_bb() for all t, with both axes fully free
/// beyond the last breakpoint.
class MultiProfile {
 public:
  /// A maximal constant piece of the timeline: `procs` free processors
  /// and `bb` free burst-buffer units from `begin` until the next
  /// segment (the last segment extends forever). 16 bytes, same as
  /// Profile::Segment.
  struct Segment {
    sim::Time begin;
    int procs;
    int bb;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  /// total_bb == 0 means the burst-buffer axis is absent: every demand
  /// must then be bb == 0 and the timeline degenerates to Profile.
  explicit MultiProfile(int total_procs, int total_bb = 0);

  [[nodiscard]] int total_procs() const { return total_procs_; }
  [[nodiscard]] int total_bb() const { return total_bb_; }

  /// Free processors at time t (t >= 0).
  [[nodiscard]] int procs_free_at(sim::Time t) const;
  /// Free burst-buffer units at time t (t >= 0).
  [[nodiscard]] int bb_free_at(sim::Time t) const;

  /// Earliest time s >= not_before such that procs_free(u) >= procs and
  /// bb_free(u) >= bb for all u in [s, s + duration). Requires
  /// 1 <= procs <= total_procs(), 0 <= bb <= total_bb(), duration >= 1.
  /// Always exists (the far future is fully free on every axis). Window
  /// ends saturate at sim::kTimeMax -- "forever", not UB.
  [[nodiscard]] sim::Time earliest_anchor(int procs, int bb,
                                          sim::Time duration,
                                          sim::Time not_before) const;

  /// Fused earliest_anchor + reserve: finds the earliest joint anchor
  /// and subtracts the (procs, bb) x duration rectangle there in the
  /// same traversal, returning the anchor. Same argument requirements
  /// as earliest_anchor.
  sim::Time find_and_reserve(int procs, int bb, sim::Time duration,
                             sim::Time not_before);

  /// Read-only compression probe for a rectangle of (procs, bb) x
  /// duration currently reserved at `held_start`: the anchor
  /// find_and_reserve(procs, bb, duration, not_before) would return
  /// after releasing it, when that anchor is earlier than held_start;
  /// sim::kNoTime when the rectangle cannot move earlier. Searches only
  /// [not_before, held_start): an anchor a < held_start is feasible after
  /// the release iff the capacity is free *now* throughout
  /// [a, min(a + duration, held_start)), because on [held_start,
  /// a + duration) the rectangle's own release covers its demand. Same
  /// argument requirements as earliest_anchor.
  [[nodiscard]] sim::Time earlier_anchor(int procs, int bb,
                                         sim::Time duration,
                                         sim::Time not_before,
                                         sim::Time held_start) const;

  /// True when `procs` processors and `bb` buffer units are free
  /// throughout [begin, end). Requires begin >= 0 for non-empty windows.
  [[nodiscard]] bool fits(int procs, int bb, sim::Time begin,
                          sim::Time end) const;

  /// Free capacity on each axis, taken separately.
  struct Capacity {
    int procs = 0;
    int bb = 0;
    friend bool operator==(const Capacity&, const Capacity&) = default;
  };

  /// The most free processors and the most free buffer units at any
  /// instant of [begin, end), each axis maximized on its own; {0, 0}
  /// for an empty window. No demand wider than this on either axis fits
  /// anywhere in the window. Requires begin >= 0 for non-empty windows.
  [[nodiscard]] Capacity max_free(sim::Time begin, sim::Time end) const;

  /// Subtract (procs, bb) over [begin, end). Throws std::logic_error if
  /// this would drive either axis negative (an over-reservation bug);
  /// the profile is unchanged when it throws.
  void reserve(sim::Time begin, sim::Time end, int procs, int bb);

  /// Add (procs, bb) back over [begin, end). Throws std::logic_error if
  /// this would exceed either axis total (a double-release bug); the
  /// profile is unchanged when it throws.
  void release(sim::Time begin, sim::Time end, int procs, int bb);

  /// Forget all breakpoints strictly before `t`; the timeline keeps its
  /// exact shape on [t, +inf). See Profile::discard_before.
  void discard_before(sim::Time t);

  /// The full piecewise timeline, coalesced, for inspection and tests.
  /// Valid until the next mutation.
  [[nodiscard]] const std::vector<Segment>& segments() const {
    return points_;  // stored coalesced: the representation is the answer
  }

  /// Number of internal breakpoints; storage is always coalesced.
  [[nodiscard]] std::size_t breakpoints() const { return points_.size(); }

  /// Throws std::logic_error if any internal invariant is broken.
  void check_invariants() const;

 private:
  int total_procs_;
  int total_bb_;
  /// Sorted by begin; points_[0].begin == 0 always, adjacent segments
  /// differ on at least one axis (coalesced), and the last segment is
  /// fully free on both axes by construction.
  std::vector<Segment> points_;

  /// One certificate of absent processor capacity: no time u in
  /// [not_before, bound) has procs_free(u) >= the bucket's width.
  /// Identical semantics to Profile::AnchorHint; the burst-buffer axis
  /// never weakens a certificate because recording is gated on bb == 0.
  struct AnchorHint {
    sim::Time not_before = 0;
    sim::Time bound = 0;
  };
  static constexpr std::size_t kHintBuckets = 16;
  /// Pure cache (mutable: recorded from const searches too). Never
  /// affects results, only where scans start.
  mutable std::array<AnchorHint, kHintBuckets> hints_{};

  /// Largest certified scan start for a (procs, not_before) query.
  [[nodiscard]] sim::Time hinted_start(int procs, sim::Time not_before) const;
  /// Record "no procs_free >= procs in [not_before, bound)". Callers
  /// only invoke this from bb == 0 searches (see file comment).
  void record_hint(int procs, sim::Time not_before, sim::Time bound) const;
  /// Truncate every certificate at a processor-capacity increase at `b`.
  void clamp_hints(sim::Time b);

  /// Index of the segment containing t (t >= 0).
  [[nodiscard]] std::size_t segment_index(sim::Time t) const;
  /// Throws std::invalid_argument unless 1 <= procs <= total_procs(),
  /// 0 <= bb <= total_bb() and duration >= 1; `op` names the caller.
  void check_demand(const char* op, int procs, int bb,
                    sim::Time duration) const;
  /// Anchor search core: returns the anchor and the index of the segment
  /// containing it. Arguments already validated. The bounded form
  /// (earlier_anchor) clips every window at `limit` and gives up with
  /// sim::kNoTime once the candidate reaches it; the unbounded form
  /// ignores `limit` at no cost.
  template <bool kBounded>
  [[nodiscard]] std::pair<sim::Time, std::size_t> anchor_from(
      int procs, int bb, sim::Time duration, sim::Time not_before,
      sim::Time limit) const;
  /// Add (dprocs, dbb) over [begin, end) given the index of the segment
  /// containing `begin`; splits boundary segments and re-coalesces.
  /// Capacity must have been validated by the caller.
  void apply_at(std::size_t first, sim::Time begin, sim::Time end, int dprocs,
                int dbb);
  /// Validated add: checks both axes stay within [0, total] over the
  /// whole window before mutating anything (strong exception guarantee).
  void apply(sim::Time begin, sim::Time end, int dprocs, int dbb);
};

}  // namespace bfsim::core
