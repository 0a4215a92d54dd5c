// The multi-resource profile's test wall, in three tiers:
//
//   1. a brute-force per-timestep oracle (two flat arrays of free
//      capacity, one per axis) checked against randomized operation
//      sequences -- the 2-axis semantics are proven against something
//      too simple to be wrong;
//   2. the axis-0 compatibility contract: a MultiProfile driven with
//      bb == 0 demands must match core::Profile operation-for-operation
//      -- same anchors, same segments, same breakpoint count, same
//      rejections -- which is the data-structure half of the repo-wide
//      "procs-only schedules are byte-identical" guarantee;
//   3. directed unit tests for the joint-axis behaviors the oracle
//      exercises only probabilistically (buffer-only blocking, per-axis
//      error messages, joint coalescing).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/multi_profile.hpp"
#include "core/profile.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bfsim::core {
namespace {

/// Brute-force reference: free capacity per axis stored per timestep
/// over a bounded horizon (fully free beyond). Every operation is a
/// plain loop; no sharing, no coalescing, nothing clever.
class BruteProfile {
 public:
  BruteProfile(int total_procs, int total_bb, sim::Time horizon)
      : total_procs_(total_procs),
        total_bb_(total_bb),
        procs_(static_cast<std::size_t>(horizon), total_procs),
        bb_(static_cast<std::size_t>(horizon), total_bb) {}

  [[nodiscard]] int procs_free_at(sim::Time t) const {
    return t < size() ? procs_[static_cast<std::size_t>(t)] : total_procs_;
  }
  [[nodiscard]] int bb_free_at(sim::Time t) const {
    return t < size() ? bb_[static_cast<std::size_t>(t)] : total_bb_;
  }

  [[nodiscard]] bool fits(int procs, int bb, sim::Time begin,
                          sim::Time end) const {
    for (sim::Time t = begin; t < end && t < size(); ++t)
      if (procs_free_at(t) < procs || bb_free_at(t) < bb) return false;
    return true;
  }

  /// Earliest joint anchor by exhaustive scan. Never scans past the
  /// horizon: the caller keeps every window inside it.
  [[nodiscard]] sim::Time earliest_anchor(int procs, int bb,
                                          sim::Time duration,
                                          sim::Time not_before) const {
    for (sim::Time s = not_before;; ++s)
      if (fits(procs, bb, s, s + duration)) return s;
  }

  void reserve(sim::Time begin, sim::Time end, int procs, int bb) {
    for (sim::Time t = begin; t < end && t < size(); ++t) {
      procs_[static_cast<std::size_t>(t)] -= procs;
      bb_[static_cast<std::size_t>(t)] -= bb;
    }
  }
  void release(sim::Time begin, sim::Time end, int procs, int bb) {
    for (sim::Time t = begin; t < end && t < size(); ++t) {
      procs_[static_cast<std::size_t>(t)] += procs;
      bb_[static_cast<std::size_t>(t)] += bb;
    }
  }

  /// The most free capacity per axis over [begin, end), by scanning.
  [[nodiscard]] MultiProfile::Capacity max_free(sim::Time begin,
                                                sim::Time end) const {
    MultiProfile::Capacity most;
    for (sim::Time t = begin; t < end && t <= size(); ++t) {
      most.procs = std::max(most.procs, procs_free_at(t));
      most.bb = std::max(most.bb, bb_free_at(t));
    }
    return most;
  }

  /// The coalesced segment view the production profile must agree with.
  [[nodiscard]] std::vector<MultiProfile::Segment> segments() const {
    std::vector<MultiProfile::Segment> out;
    for (sim::Time t = 0; t <= size(); ++t) {
      const int p = procs_free_at(t);
      const int b = bb_free_at(t);
      if (out.empty() || out.back().procs != p || out.back().bb != b)
        out.push_back({t, p, b});
    }
    return out;
  }

 private:
  [[nodiscard]] sim::Time size() const {
    return static_cast<sim::Time>(procs_.size());
  }

  int total_procs_;
  int total_bb_;
  std::vector<int> procs_;
  std::vector<int> bb_;
};

void expect_matches_oracle(const MultiProfile& profile,
                           const BruteProfile& oracle, sim::Time horizon) {
  ASSERT_NO_THROW(profile.check_invariants());
  ASSERT_EQ(profile.segments(), oracle.segments());
  for (sim::Time t = 0; t <= horizon; t += 7) {
    ASSERT_EQ(profile.procs_free_at(t), oracle.procs_free_at(t)) << "t=" << t;
    ASSERT_EQ(profile.bb_free_at(t), oracle.bb_free_at(t)) << "t=" << t;
  }
}

class MultiProfileOracleTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiProfileOracleTest, RandomOpsMatchPerTimestepOracle) {
  constexpr int kProcs = 24;
  constexpr int kBb = 40;
  // The oracle horizon must cover every window the test creates:
  // anchors start <= kFrom, durations <= kDur, and the worst anchor a
  // search can return is bounded by total work / min demand -- keep the
  // slack generous instead of clever.
  constexpr sim::Time kFrom = 300;
  constexpr sim::Time kDur = 40;
  constexpr sim::Time kHorizon = 20000;
  sim::Rng rng{GetParam()};
  MultiProfile profile{kProcs, kBb};
  BruteProfile oracle{kProcs, kBb, kHorizon};

  struct Live {
    sim::Time b, e;
    int procs, bb;
  };
  std::vector<Live> live;

  for (int step = 0; step < 250; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.30 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Live& r = live[idx];
      const bool tail_only = r.e - r.b > 2 && rng.bernoulli(0.4);
      const sim::Time from =
          tail_only ? r.b + rng.uniform_int(1, r.e - r.b - 1) : r.b;
      profile.release(from, r.e, r.procs, r.bb);
      oracle.release(from, r.e, r.procs, r.bb);
      // Compression's width bound reads the freed span this way.
      ASSERT_EQ(profile.max_free(from, r.e), oracle.max_free(from, r.e))
          << "[" << from << ", " << r.e << ")";
      if (tail_only) {
        r.e = from;
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else if (dice < 0.70) {
      // Fused find-and-reserve vs exhaustive scan + loop subtraction.
      // bb == 0 demands stay common (they are the compatibility path).
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const int bb =
          rng.bernoulli(0.3) ? 0 : static_cast<int>(rng.uniform_int(0, kBb));
      const sim::Time dur = rng.uniform_int(1, kDur);
      const sim::Time from = rng.uniform_int(0, kFrom);
      const sim::Time got = profile.find_and_reserve(procs, bb, dur, from);
      const sim::Time want = oracle.earliest_anchor(procs, bb, dur, from);
      ASSERT_EQ(got, want) << "procs=" << procs << " bb=" << bb
                           << " dur=" << dur << " from=" << from;
      oracle.reserve(got, got + dur, procs, bb);
      live.push_back({got, got + dur, procs, bb});
    } else if (dice < 0.80 && !live.empty()) {
      // Read-only compression probe on a live rectangle vs the oracle's
      // earliest anchor with that rectangle released, which counts only
      // when it moves the rectangle earlier.
      const Live& r = live[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
      const sim::Time from = rng.uniform_int(0, r.b + 5);
      const sim::Time got =
          profile.earlier_anchor(r.procs, r.bb, r.e - r.b, from, r.b);
      oracle.release(r.b, r.e, r.procs, r.bb);
      const sim::Time anchor =
          oracle.earliest_anchor(r.procs, r.bb, r.e - r.b, from);
      oracle.reserve(r.b, r.e, r.procs, r.bb);
      ASSERT_EQ(got, anchor < r.b ? anchor : sim::kNoTime)
          << "procs=" << r.procs << " bb=" << r.bb << " [" << r.b << ", "
          << r.e << ") from=" << from;
    } else if (dice < 0.90) {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs / 2));
      const int bb = static_cast<int>(rng.uniform_int(0, kBb / 2));
      const sim::Time b = rng.uniform_int(0, kFrom);
      const sim::Time e = b + rng.uniform_int(1, kDur);
      if (!oracle.fits(procs, bb, b, e)) continue;
      profile.reserve(b, e, procs, bb);
      oracle.reserve(b, e, procs, bb);
      live.push_back({b, e, procs, bb});
    } else {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const int bb = static_cast<int>(rng.uniform_int(0, kBb));
      const sim::Time dur = rng.uniform_int(1, kDur);
      const sim::Time from = rng.uniform_int(0, kFrom);
      ASSERT_EQ(profile.earliest_anchor(procs, bb, dur, from),
                oracle.earliest_anchor(procs, bb, dur, from));
      ASSERT_EQ(profile.fits(procs, bb, from, from + dur),
                oracle.fits(procs, bb, from, from + dur));
      ASSERT_EQ(profile.max_free(from, from + dur),
                oracle.max_free(from, from + dur));
      ASSERT_EQ(profile.max_free(from, from), MultiProfile::Capacity{});
    }
    expect_matches_oracle(profile, oracle, kFrom + 2 * kDur);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MultiProfileOracleTest,
                         testing::Values(21, 22, 23, 24, 25, 26));

// -- Tier 2: the axis-0 compatibility contract ------------------------

class MultiProfileAxisZeroTest : public testing::TestWithParam<std::uint64_t> {
};

TEST_P(MultiProfileAxisZeroTest, BbZeroPathIsIdenticalToProfile) {
  constexpr int kProcs = 48;
  constexpr sim::Time kHorizon = 100000;
  sim::Rng rng{GetParam()};
  MultiProfile multi{kProcs};  // total_bb defaults to 0: axis absent
  Profile flat{kProcs};

  const auto expect_identical = [&] {
    ASSERT_NO_THROW(multi.check_invariants());
    // Not just equivalent: the same breakpoints, which pins the internal
    // representation (coalescing and hint-cache evolution included, as
    // different hints would surface as different anchors below).
    ASSERT_EQ(multi.breakpoints(), flat.breakpoints());
    const auto ms = multi.segments();
    const auto fs = flat.segments();
    ASSERT_EQ(ms.size(), fs.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      ASSERT_EQ(ms[i].begin, fs[i].begin);
      ASSERT_EQ(ms[i].procs, fs[i].free);
      ASSERT_EQ(ms[i].bb, 0);
    }
  };

  struct Live {
    sim::Time b, e;
    int procs;
  };
  std::vector<Live> live;

  for (int step = 0; step < 400; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.28 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      Live& r = live[idx];
      const bool tail_only = r.e - r.b > 2 && rng.bernoulli(0.4);
      const sim::Time from =
          tail_only ? r.b + rng.uniform_int(1, r.e - r.b - 1) : r.b;
      multi.release(from, r.e, r.procs, 0);
      flat.release(from, r.e, r.procs);
      if (tail_only) {
        r.e = from;
      } else {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else if (dice < 0.62) {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const sim::Time dur = rng.uniform_int(1, 4000);
      const sim::Time from = rng.uniform_int(0, kHorizon);
      const sim::Time got = multi.find_and_reserve(procs, 0, dur, from);
      const sim::Time want = flat.find_and_reserve(procs, dur, from);
      ASSERT_EQ(got, want);
      live.push_back({got, got + dur, procs});
    } else if (dice < 0.75) {
      // discard_before exercises the hint/breakpoint bookkeeping both
      // implementations must age identically. Discarding settles the
      // past, so the live set is trimmed the way the scheduler trims
      // it: rectangles wholly before the cut are never released again,
      // straddlers only ever release their surviving tail.
      const sim::Time cut = rng.uniform_int(0, kHorizon / 4);
      multi.discard_before(cut);
      flat.discard_before(cut);
      std::erase_if(live, [cut](const Live& r) { return r.e <= cut; });
      for (Live& r : live) r.b = std::max(r.b, cut);
    } else {
      const int procs = static_cast<int>(rng.uniform_int(1, kProcs));
      const sim::Time dur = rng.uniform_int(1, 8000);
      const sim::Time from = rng.uniform_int(0, kHorizon);
      ASSERT_EQ(multi.earliest_anchor(procs, 0, dur, from),
                flat.earliest_anchor(procs, dur, from));
      ASSERT_EQ(multi.fits(procs, 0, from, from + dur),
                flat.fits(procs, from, from + dur));
      for (sim::Time t = 0; t <= kHorizon; t += kHorizon / 13)
        ASSERT_EQ(multi.procs_free_at(t), flat.free_at(t));
    }
    expect_identical();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MultiProfileAxisZeroTest,
                         testing::Values(31, 32, 33, 34));

// -- Tier 3: directed joint-axis behavior -----------------------------

TEST(MultiProfile, BufferAxisAloneDelaysAnAnchor) {
  MultiProfile profile{8, 100};
  // Processors nearly free, buffer saturated until t=50.
  profile.reserve(0, 50, 1, 100);
  EXPECT_EQ(profile.earliest_anchor(1, 0, 10, 0), 0);   // procs-only: now
  EXPECT_EQ(profile.earliest_anchor(1, 1, 10, 0), 50);  // 1 GB: waits
  EXPECT_EQ(profile.procs_free_at(0), 7);
  EXPECT_EQ(profile.bb_free_at(0), 0);
  EXPECT_EQ(profile.bb_free_at(50), 100);
}

TEST(MultiProfile, ProcsAxisAloneDelaysAnAnchor) {
  MultiProfile profile{8, 100};
  profile.reserve(0, 50, 8, 1);
  EXPECT_EQ(profile.earliest_anchor(1, 99, 10, 0), 50);
  EXPECT_TRUE(profile.fits(0, 99, 0, 50));
  EXPECT_FALSE(profile.fits(1, 0, 0, 50));
}

TEST(MultiProfile, SegmentsDifferingOnlyOnBufferStayDistinct) {
  MultiProfile profile{8, 100};
  profile.reserve(10, 20, 4, 10);
  profile.reserve(20, 30, 4, 20);  // same procs, different bb
  const auto segments = profile.segments();
  ASSERT_EQ(segments.size(), 4u);
  EXPECT_EQ(segments[0], (MultiProfile::Segment{0, 8, 100}));
  EXPECT_EQ(segments[1], (MultiProfile::Segment{10, 4, 90}));
  EXPECT_EQ(segments[2], (MultiProfile::Segment{20, 4, 80}));
  EXPECT_EQ(segments[3], (MultiProfile::Segment{30, 8, 100}));
}

TEST(MultiProfile, AdjacentEqualRectanglesCoalesce) {
  MultiProfile profile{8, 100};
  profile.reserve(10, 20, 4, 10);
  profile.reserve(20, 30, 4, 10);
  EXPECT_EQ(profile.segments().size(), 3u);
  profile.release(10, 30, 4, 10);
  EXPECT_EQ(profile.segments().size(), 1u);
  EXPECT_EQ(profile.breakpoints(), 1u);
}

TEST(MultiProfile, PerAxisOverReservationAndDoubleReleaseThrow) {
  MultiProfile profile{8, 10};
  profile.reserve(0, 10, 8, 0);
  // Processor axis exhausted, buffer axis plentiful.
  EXPECT_THROW(profile.reserve(5, 6, 1, 0), std::logic_error);
  profile.reserve(0, 10, 0, 10);
  // Buffer axis exhausted, processors untouched by this demand shape.
  EXPECT_THROW(profile.reserve(5, 6, 0, 1), std::logic_error);
  // Each axis rejects its own double release.
  EXPECT_THROW(profile.release(20, 30, 1, 0), std::logic_error);
  EXPECT_THROW(profile.release(20, 30, 0, 1), std::logic_error);
  // Failed operations left the timeline untouched (strong guarantee).
  EXPECT_NO_THROW(profile.check_invariants());
  EXPECT_EQ(profile.procs_free_at(5), 0);
  EXPECT_EQ(profile.bb_free_at(5), 0);
  EXPECT_EQ(profile.procs_free_at(10), 8);
  EXPECT_EQ(profile.bb_free_at(10), 10);
}

TEST(MultiProfile, AbsentBufferAxisRejectsAnyDemand) {
  MultiProfile profile{8};
  EXPECT_THROW((void)profile.earliest_anchor(1, 1, 10, 0),
               std::invalid_argument);
  EXPECT_THROW(profile.find_and_reserve(1, 1, 10, 0), std::invalid_argument);
  EXPECT_NO_THROW(profile.reserve(0, 10, 4, 0));
  EXPECT_THROW(profile.reserve(0, 10, 1, 1), std::logic_error);
}

TEST(MultiProfile, RejectsMalformedArguments) {
  EXPECT_THROW(MultiProfile(0, 4), std::invalid_argument);
  EXPECT_THROW(MultiProfile(4, -1), std::invalid_argument);
  MultiProfile profile{4, 4};
  EXPECT_THROW((void)profile.earliest_anchor(0, 0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(5, 0, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, 5, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, -1, 10, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.earliest_anchor(1, 0, 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)profile.procs_free_at(-1), std::invalid_argument);
  EXPECT_THROW((void)profile.bb_free_at(-1), std::invalid_argument);
}

TEST(MultiProfile, DiscardBeforeKeepsTheVisibleTimeline) {
  MultiProfile profile{8, 20};
  profile.reserve(0, 100, 2, 5);
  profile.reserve(50, 150, 3, 5);
  profile.discard_before(60);
  EXPECT_EQ(profile.procs_free_at(60), 3);
  EXPECT_EQ(profile.bb_free_at(60), 10);
  EXPECT_EQ(profile.procs_free_at(120), 5);
  EXPECT_EQ(profile.bb_free_at(120), 15);
  EXPECT_EQ(profile.procs_free_at(200), 8);
  EXPECT_EQ(profile.bb_free_at(200), 20);
  EXPECT_NO_THROW(profile.check_invariants());
}

TEST(MultiProfile, WindowsSaturateAtTheFarFuture) {
  MultiProfile profile{4, 8};
  // A duration that would overflow begin + duration must saturate, not
  // wrap: the anchor is still found (the far future is fully free).
  const sim::Time anchor =
      profile.earliest_anchor(4, 8, sim::kTimeMax, 100);
  EXPECT_EQ(anchor, 100);
  profile.reserve(0, 10, 4, 8);
  EXPECT_EQ(profile.earliest_anchor(1, 1, sim::kTimeMax, 0), 10);
}

}  // namespace
}  // namespace bfsim::core
