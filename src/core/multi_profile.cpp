#include "core/multi_profile.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace bfsim::core {

namespace {
// The far future. Equal to sim::kTimeMax: saturating window arithmetic
// clamps here, and the fully-free tail segment conceptually extends to
// it, so a saturated window end compares correctly against seg_end.
constexpr sim::Time kFar = sim::kTimeMax;

/// Smallest power-of-two bucket index whose width covers `procs`
/// (procs >= 1): 1->0, 2->1, 3..4->2, 5..8->3, ...
std::size_t hint_bucket(int procs) {
  return static_cast<std::size_t>(
      std::bit_width(static_cast<unsigned>(procs) - 1u));
}

/// The std::invalid_argument MultiProfile::check_demand promises, kept
/// out of line so the check itself stays small enough to inline into
/// the anchor searches.
[[noreturn]] void throw_bad_demand(const char* op, int procs, int total_procs,
                                   int bb, int total_bb) {
  const std::string where = std::string("MultiProfile::") + op;
  if (procs < 1 || procs > total_procs)
    throw std::invalid_argument(where + ": bad procs " +
                                std::to_string(procs) + " of " +
                                std::to_string(total_procs));
  if (bb < 0 || bb > total_bb)
    throw std::invalid_argument(where + ": bad bb " + std::to_string(bb) +
                                " of " + std::to_string(total_bb));
  throw std::invalid_argument(where + ": bad duration");
}
}  // namespace

MultiProfile::MultiProfile(int total_procs, int total_bb)
    : total_procs_(total_procs), total_bb_(total_bb) {
  if (total_procs < 1)
    throw std::invalid_argument("MultiProfile: total_procs must be >= 1");
  if (total_bb < 0)
    throw std::invalid_argument("MultiProfile: total_bb must be >= 0");
  points_.push_back(Segment{0, total_procs_, total_bb_});
}

std::size_t MultiProfile::segment_index(sim::Time t) const {
  // First breakpoint strictly after t, minus one; points_[0].begin == 0
  // and t >= 0, so the predecessor always exists.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](sim::Time time, const Segment& s) { return time < s.begin; });
  return static_cast<std::size_t>(it - points_.begin()) - 1;
}

int MultiProfile::procs_free_at(sim::Time t) const {
  if (t < 0)
    throw std::invalid_argument("MultiProfile::procs_free_at: negative time");
  return points_[segment_index(t)].procs;
}

int MultiProfile::bb_free_at(sim::Time t) const {
  if (t < 0)
    throw std::invalid_argument("MultiProfile::bb_free_at: negative time");
  return points_[segment_index(t)].bb;
}

bool MultiProfile::fits(int procs, int bb, sim::Time begin,
                        sim::Time end) const {
  if (begin >= end) return true;
  if (begin < 0)
    throw std::invalid_argument("MultiProfile::fits: negative window start");
  for (std::size_t i = segment_index(begin);
       i < points_.size() && points_[i].begin < end; ++i)
    if (points_[i].procs < procs || points_[i].bb < bb) return false;
  return true;
}

MultiProfile::Capacity MultiProfile::max_free(sim::Time begin,
                                              sim::Time end) const {
  Capacity most;
  if (begin >= end) return most;
  if (begin < 0)
    throw std::invalid_argument("MultiProfile::max_free: negative window start");
  for (std::size_t i = segment_index(begin);
       i < points_.size() && points_[i].begin < end; ++i) {
    most.procs = std::max(most.procs, points_[i].procs);
    most.bb = std::max(most.bb, points_[i].bb);
  }
  return most;
}

sim::Time MultiProfile::hinted_start(int procs, sim::Time not_before) const {
  // A bucket of width w <= procs certifies procs_free < w <= procs over
  // [h.not_before, h.bound); when its interval starts at or before the
  // query it rules out every joint anchor below h.bound (a joint anchor
  // needs the processors regardless of the buffer demand). Take the best.
  sim::Time start = not_before;
  const std::size_t usable =
      std::min<std::size_t>(kHintBuckets,
                            std::bit_width(static_cast<unsigned>(procs)));
  for (std::size_t k = 0; k < usable; ++k) {
    const AnchorHint& h = hints_[k];
    if (h.not_before <= not_before && h.bound > start) start = h.bound;
  }
  return start;
}

void MultiProfile::record_hint(int procs, sim::Time not_before,
                               sim::Time bound) const {
  if (bound <= not_before) return;
  const std::size_t k = hint_bucket(procs);
  if (k >= kHintBuckets) return;
  // "No procs_free >= procs" implies "no procs_free >= bucket width"
  // (width >= procs), so widening to the bucket is sound.
  AnchorHint& h = hints_[k];
  if (h.not_before <= not_before && not_before <= h.bound) {
    // Overlapping or adjacent with the stored certificate: merge into
    // one longer interval (the common case while `now` advances).
    if (bound > h.bound) h.bound = bound;
  } else if (bound > h.bound) {
    h = AnchorHint{not_before, bound};
  }
}

void MultiProfile::clamp_hints(sim::Time b) {
  // Processor capacity increased somewhere in [b, ...): certificates
  // stay valid only strictly below b.
  for (AnchorHint& h : hints_)
    if (h.bound > b) h.bound = b;
}

template <bool kBounded>
std::pair<sim::Time, std::size_t> MultiProfile::anchor_from(
    int procs, int bb, sim::Time duration, sim::Time not_before,
    [[maybe_unused]] sim::Time limit) const {
  // Resume from the certified prefix, then advance to the first instant
  // with capacity on both axes. The skipped prefix extends this width's
  // certificate only for bb == 0 searches: with a buffer demand the
  // advance loop also skips segments blocked purely on the buffer axis,
  // which says nothing about their processors. A bounded search stops
  // advancing at the first segment beginning at-or-after `limit`; every
  // segment it skipped was still blocked, so its certificate holds too.
  const bool record = bb == 0;
  const sim::Time start = hinted_start(procs, not_before);
  std::size_t i = segment_index(start);
  while (points_[i].procs < procs || points_[i].bb < bb) {
    ++i;
    if constexpr (kBounded)
      if (points_[i].begin >= limit) break;
  }
  sim::Time candidate = std::max(start, points_[i].begin);
  if (record) record_hint(procs, not_before, candidate);
  for (;;) {
    if constexpr (kBounded)
      if (candidate >= limit) return {sim::kNoTime, i};
    // points_[i] is the segment containing `candidate`. Scan forward
    // checking that every segment overlapping the window [candidate,
    // candidate + duration) has enough free capacity on both axes. The
    // window end saturates at kFar, which only the tail segment (or a
    // breakpoint at kFar itself) can cover -- "forever" semantics. A
    // bounded window ends at `limit` at the latest.
    sim::Time window_end = sim::saturating_add(candidate, duration);
    if constexpr (kBounded) window_end = std::min(window_end, limit);
    std::size_t scan = i;
    bool ok = true;
    while (true) {
      if (points_[scan].procs < procs || points_[scan].bb < bb) {
        ok = false;
        break;
      }
      const sim::Time seg_end =
          scan + 1 == points_.size() ? kFar : points_[scan + 1].begin;
      if (seg_end >= window_end) break;  // window fully covered
      ++scan;
    }
    if (ok) return {candidate, i};
    // Blocked inside segment `scan`; resume at the next segment with
    // enough capacity. The last segment is fully free on both axes, so
    // this terminates.
    do {
      ++scan;
      if constexpr (kBounded)
        if (points_[scan].begin >= limit) break;
    } while (points_[scan].procs < procs || points_[scan].bb < bb);
    candidate = points_[scan].begin;
    i = scan;
  }
}

void MultiProfile::check_demand(const char* op, int procs, int bb,
                                sim::Time duration) const {
  if (procs >= 1 && procs <= total_procs_ && bb >= 0 && bb <= total_bb_ &&
      duration >= 1)
    return;
  throw_bad_demand(op, procs, total_procs_, bb, total_bb_);
}

sim::Time MultiProfile::earliest_anchor(int procs, int bb, sim::Time duration,
                                        sim::Time not_before) const {
  check_demand("earliest_anchor", procs, bb, duration);
  if (not_before < 0) not_before = 0;
  return anchor_from<false>(procs, bb, duration, not_before, kFar).first;
}

sim::Time MultiProfile::earlier_anchor(int procs, int bb, sim::Time duration,
                                       sim::Time not_before,
                                       sim::Time held_start) const {
  check_demand("earlier_anchor", procs, bb, duration);
  if (not_before < 0) not_before = 0;
  return anchor_from<true>(procs, bb, duration, not_before, held_start).first;
}

sim::Time MultiProfile::find_and_reserve(int procs, int bb,
                                         sim::Time duration,
                                         sim::Time not_before) {
  check_demand("find_and_reserve", procs, bb, duration);
  if (not_before < 0) not_before = 0;
  const auto [anchor, index] =
      anchor_from<false>(procs, bb, duration, not_before, kFar);
  // The search proved both axes hold throughout the window, so the
  // reservation needs no capacity re-check and no second search. A
  // reserve only removes capacity, so every anchor-hint certificate
  // survives it unchanged.
  apply_at(index, anchor, sim::saturating_add(anchor, duration), -procs, -bb);
  return anchor;
}

void MultiProfile::apply_at(std::size_t first, sim::Time begin, sim::Time end,
                            int dprocs, int dbb) {
  // One operation inserts at most two breakpoints; grow geometrically
  // up front so neither insert can reallocate (and move the whole
  // timeline) mid-operation.
  if (points_.capacity() < points_.size() + 2)
    points_.reserve(points_.size() + std::max<std::size_t>(points_.size(), 16));
  // Split the segment containing `begin` so a breakpoint sits exactly
  // at the window start.
  std::size_t i = first;
  if (points_[i].begin < begin) {
    points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   Segment{begin, points_[i].procs, points_[i].bb});
    ++i;
  }
  // Find the first segment starting at-or-after `end`; split the last
  // covered segment when it extends past the window.
  std::size_t j = i;
  while (j < points_.size() && points_[j].begin < end) ++j;
  if (j == points_.size() || points_[j].begin > end)
    points_.insert(points_.begin() + static_cast<std::ptrdiff_t>(j),
                   Segment{end, points_[j - 1].procs, points_[j - 1].bb});
  for (std::size_t k = i; k < j; ++k) {
    points_[k].procs += dprocs;
    points_[k].bb += dbb;
  }
  // Re-coalesce: interior neighbors shifted by the same deltas stay
  // distinct, so only the two window boundaries can merge. Erase the
  // later one first so `i` stays valid.
  if (j < points_.size() && points_[j].procs == points_[j - 1].procs &&
      points_[j].bb == points_[j - 1].bb)
    points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(j));
  if (i > 0 && points_[i].procs == points_[i - 1].procs &&
      points_[i].bb == points_[i - 1].bb)
    points_.erase(points_.begin() + static_cast<std::ptrdiff_t>(i));
}

void MultiProfile::apply(sim::Time begin, sim::Time end, int dprocs,
                         int dbb) {
  if (begin < 0)
    throw std::invalid_argument("MultiProfile: negative interval start");
  if (begin >= end) return;
  const std::size_t first = segment_index(begin);
  // Validate the whole window on both axes before touching anything, so
  // a rejected operation leaves the profile exactly as it was.
  for (std::size_t i = first; i < points_.size() && points_[i].begin < end;
       ++i) {
    const int procs = points_[i].procs + dprocs;
    const int bb = points_[i].bb + dbb;
    if (procs < 0 || bb < 0)
      throw std::logic_error(
          "MultiProfile: over-reservation on the " +
          std::string(procs < 0 ? "procs" : "burst-buffer") + " axis at t=" +
          std::to_string(std::max(begin, points_[i].begin)));
    if (procs > total_procs_ || bb > total_bb_)
      throw std::logic_error(
          "MultiProfile: double release on the " +
          std::string(procs > total_procs_ ? "procs" : "burst-buffer") +
          " axis at t=" +
          std::to_string(std::max(begin, points_[i].begin)));
  }
  // A release adds processor capacity from `begin` on, which can create
  // anchors inside previously certified no-capacity intervals: truncate
  // them. A buffer-only release never invalidates a processor
  // certificate, so dbb alone leaves the cache untouched.
  if (dprocs > 0) clamp_hints(begin);
  apply_at(first, begin, end, dprocs, dbb);
}

void MultiProfile::reserve(sim::Time begin, sim::Time end, int procs,
                           int bb) {
  if (procs < 0 || bb < 0)
    throw std::invalid_argument("MultiProfile::reserve: negative demand");
  apply(begin, end, -procs, -bb);
}

void MultiProfile::release(sim::Time begin, sim::Time end, int procs,
                           int bb) {
  if (procs < 0 || bb < 0)
    throw std::invalid_argument("MultiProfile::release: negative demand");
  apply(begin, end, procs, bb);
}

void MultiProfile::discard_before(sim::Time t) {
  if (t <= 0) return;
  const std::size_t keep = segment_index(t);
  if (keep == 0) return;  // t is inside the first segment: nothing to drop
  points_.erase(points_.begin(),
                points_.begin() + static_cast<std::ptrdiff_t>(keep));
  // The surviving segment's values now also cover the discarded past.
  points_.front().begin = 0;
  // That raises free capacity over the discarded region, so certificates
  // that started there are only trustworthy from t on.
  for (AnchorHint& h : hints_)
    if (h.not_before < t) h.not_before = t;
}

void MultiProfile::check_invariants() const {
  if (points_.empty() || points_.front().begin != 0)
    throw std::logic_error("MultiProfile: missing origin breakpoint");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const Segment& s = points_[i];
    if (s.procs < 0 || s.procs > total_procs_)
      throw std::logic_error("MultiProfile: procs free out of range at t=" +
                             std::to_string(s.begin));
    if (s.bb < 0 || s.bb > total_bb_)
      throw std::logic_error(
          "MultiProfile: burst-buffer free out of range at t=" +
          std::to_string(s.begin));
    if (i > 0 && points_[i - 1].begin >= s.begin)
      throw std::logic_error("MultiProfile: breakpoints out of order at t=" +
                             std::to_string(s.begin));
    if (i > 0 && points_[i - 1].procs == s.procs && points_[i - 1].bb == s.bb)
      throw std::logic_error("MultiProfile: uncoalesced breakpoint at t=" +
                             std::to_string(s.begin));
  }
  if (points_.back().procs != total_procs_ || points_.back().bb != total_bb_)
    throw std::logic_error("MultiProfile: tail segment is not fully free");
  // Every live anchor-hint certificate must be literally true of the
  // current timeline on the processor axis: no segment inside it may
  // reach the bucket width (certificates are procs-only by design).
  for (std::size_t k = 0; k < kHintBuckets; ++k) {
    const AnchorHint& h = hints_[k];
    if (h.bound <= h.not_before) continue;
    if (h.not_before < 0)
      throw std::logic_error("MultiProfile: anchor hint before the origin");
    const int width = 1 << k;
    for (std::size_t i = segment_index(h.not_before);
         i < points_.size() && points_[i].begin < h.bound; ++i)
      if (points_[i].procs >= width)
        throw std::logic_error(
            "MultiProfile: stale anchor hint claims no " +
            std::to_string(width) + " procs before t=" +
            std::to_string(h.bound) + " but t=" +
            std::to_string(std::max(h.not_before, points_[i].begin)) +
            " has " + std::to_string(points_[i].procs));
  }
}

}  // namespace bfsim::core
