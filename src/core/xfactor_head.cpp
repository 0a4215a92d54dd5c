#include "core/xfactor_head.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/priority.hpp"

namespace bfsim::core {

namespace {

/// A lower bound, later than `now`, on the first instant at which `l`
/// may precede `w` in XFactor order, given that `w` (factor `kw`)
/// precedes `l` (factor `kl`) at `now`; sim::kTimeMax when `l` never can.
///
/// With E = max(est, 1) as a double and a = now - submit, the factors
/// are the lines 1 + (a + x) / E in the offset x from now, which cross
/// at x* = (a_w E_l - a_l E_w) / (E_w - E_l). Each computed factor is
/// within about 3 ulp (relative) of its line, so the double comparison
/// can disagree with the lines' order only in a band around x*. The
/// band below is wider than both that and the rounding of x* itself
/// (DESIGN.md section 11 has the bounds); inside it the match is
/// replayed at every instant.
Time overtake_bound(const Job& w, double kw, const Job& l, double kl,
                    Time now) {
  const auto ew = static_cast<double>(std::max<Time>(w.estimate, 1));
  const auto el = static_cast<double>(std::max<Time>(l.estimate, 1));
  // Equal divisors: the factors keep the order of the waits, and the
  // submit tie-break agrees with it, so the order never changes.
  if (ew == el) return sim::kTimeMax;
  const Time next = sim::saturating_add(now, 1);
  // The analysis needs exact integer inputs and factors that are lines
  // from now on (a submit in the future bends them).
  constexpr double kExact = 0x1p53;
  if (w.submit > now || l.submit > now || ew >= kExact || el >= kExact)
    return next;
  const auto aw = static_cast<double>(sim::checked::elapsed(now, w.submit));
  const auto al = static_cast<double>(sim::checked::elapsed(now, l.submit));
  if (aw >= kExact || al >= kExact) return next;
  const double spread = ew - el;  // exact: integers below 2^53
  const double inverse = 1 / std::abs(spread);
  const double x = (aw * el - al * ew) * (spread > 0 ? inverse : -inverse);
  // 16 units in the last place, over twice what the factors and x* need.
  constexpr double kUlps = 16 * 0x1p-53;
  // The rounding error grows with the factors at this fraction of the
  // rate the lines separate; from 1/2 on the slopes are too close to
  // tell apart, so the match is replayed at every instant.
  const double drift = kUlps * (ew + el) * inverse;
  if (!(drift < 0.5)) return next;
  // The largest factor involved (now, or at a crossing ahead) times
  // E_w E_l; the factor 2 covers 1 / (1 - drift).
  double scale = std::max(kw, kl) * ew * el;
  if (x > 0) scale = std::max(scale, (ew + aw + x) * el);
  const double band = kUlps * (2 * scale * inverse + std::abs(x)) + 2;
  if (spread > 0) {
    // l is steeper: it overtakes w around now + x*.
    const double safe = x - band;
    if (!(safe >= 1)) return next;
    constexpr double kFar = 0x1p62;  // beyond every representable clock
    return sim::saturating_add(
        now, safe >= kFar ? static_cast<Time>(kFar) : static_cast<Time>(safe));
  }
  // w is steeper: once past the band it leads for good.
  return x + band < 0 ? sim::kTimeMax : next;
}

}  // namespace

void XFactorHead::insert(const Job& job, Time now) {
  if (job.id >= slot_of_.size()) slot_of_.resize(job.id + 1, kNone);
  if (slot_of_[job.id] != kNone)
    throw std::logic_error("XFactorHead: job already present");
  if (vacant_.empty()) grow(now);
  const std::uint32_t slot = vacant_.back();
  vacant_.pop_back();
  jobs_[slot] = job;
  slot_of_[job.id] = slot;
  ++size_;
  nodes_[leaves_ + slot].winner = slot;
  repair_path(leaves_ + slot, now);
}

void XFactorHead::erase(JobId id, Time now) {
  if (id >= slot_of_.size() || slot_of_[id] == kNone)
    throw std::logic_error("XFactorHead: erasing an absent job");
  const std::uint32_t slot = slot_of_[id];
  slot_of_[id] = kNone;
  vacant_.push_back(slot);
  --size_;
  nodes_[leaves_ + slot].winner = kNone;
  repair_path(leaves_ + slot, now);
}

const Job* XFactorHead::head(Time now) {
  if (size_ == 0) return nullptr;
  (void)refresh(1, now);
  return &jobs_[nodes_[1].winner];
}

bool XFactorHead::play(std::size_t v, Time now) {
  ++node_updates_;
  Node& node = nodes_[v];
  const Node& left = nodes_[2 * v];
  const Node& right = nodes_[2 * v + 1];
  std::uint32_t winner = left.winner;
  Time cert = sim::kTimeMax;
  if (left.winner == kNone) {
    winner = right.winner;
  } else if (right.winner != kNone) {
    const Job& a = jobs_[left.winner];
    const Job& b = jobs_[right.winner];
    const double ka = xfactor(a, now);
    const double kb = xfactor(b, now);
    const bool a_first = xfactor_precedes(ka, a, kb, b);
    winner = a_first ? left.winner : right.winner;
    cert = a_first ? overtake_bound(a, ka, b, kb, now)
                   : overtake_bound(b, kb, a, ka, now);
  }
  const bool changed = winner != node.winner;
  node.winner = winner;
  node.cert = cert;
  node.due = subtree_due(v);
  return changed;
}

Time XFactorHead::subtree_due(std::size_t v) const {
  return std::min({nodes_[v].cert, nodes_[2 * v].due, nodes_[2 * v + 1].due});
}

bool XFactorHead::refresh(std::size_t v, Time now) {
  if (v >= leaves_ || nodes_[v].due > now) return false;
  const bool left = refresh(2 * v, now);
  const bool right = refresh(2 * v + 1, now);
  // A match whose players and certificate still stand keeps its winner.
  if (left || right || nodes_[v].cert <= now) return play(v, now);
  nodes_[v].due = subtree_due(v);
  return false;
}

void XFactorHead::repair_path(std::size_t leaf, Time now) {
  // Above the first node whose winner survives, every match keeps both
  // players; only the subtree due times can have moved.
  bool changed = true;
  for (std::size_t v = leaf / 2; v >= 1; v /= 2) {
    if (changed)
      changed = play(v, now);
    else
      nodes_[v].due = subtree_due(v);
  }
}

void XFactorHead::grow(Time now) {
  const std::size_t old_leaves = leaves_;
  leaves_ = std::max<std::size_t>(16, 2 * old_leaves);
  jobs_.resize(leaves_);
  // Lowest new slot on top of the stack.
  for (std::size_t s = leaves_; s-- > old_leaves;)
    vacant_.push_back(static_cast<std::uint32_t>(s));
  std::vector<Node> nodes(2 * leaves_);
  for (std::size_t s = 0; s < old_leaves; ++s)
    nodes[leaves_ + s].winner = nodes_[old_leaves + s].winner;
  nodes_.swap(nodes);
  for (std::size_t v = leaves_; v-- > 1;) (void)play(v, now);
}

}  // namespace bfsim::core
