#include "workload/transforms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "test_support.hpp"
#include "workload/synthetic.hpp"

namespace bfsim::workload {
namespace {

TEST(Transforms, FinalizeSortsAndRenumbers) {
  Trace trace;
  for (int i = 0; i < 3; ++i) {
    Job j;
    j.id = 99;
    j.submit = 100 - i * 10;
    j.runtime = 1;
    j.estimate = 1;
    trace.push_back(j);
  }
  finalize(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i);
    if (i > 0) {
      EXPECT_LE(trace[i - 1].submit, trace[i].submit);
    }
  }
}

TEST(Transforms, FinalizeIsStableForTies) {
  Trace trace;
  for (int i = 0; i < 4; ++i) {
    Job j;
    j.submit = 50;
    j.runtime = i + 1;  // distinguishes original order
    j.estimate = j.runtime;
    trace.push_back(j);
  }
  finalize(trace);
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(trace[i].runtime, static_cast<sim::Time>(i + 1));
}

TEST(Transforms, FinalizeEqualsStableSortPlusRenumbering) {
  // finalize skips the sort when the trace is already in submit order;
  // on sorted, tied and unsorted traces alike it must give what a
  // stable sort by submit followed by renumbering gives.
  sim::Rng rng{17};
  for (int round = 0; round < 60; ++round) {
    Trace trace;
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 40));
    sim::Time submit = 0;
    for (std::size_t i = 0; i < count; ++i) {
      Job j;
      j.id = static_cast<JobId>(rng.uniform_int(0, 1000));
      // Rounds 0-19 sorted with gaps, 20-39 sorted with many ties,
      // 40-59 arbitrary order.
      if (round < 20)
        submit += rng.uniform_int(0, 50);
      else if (round < 40)
        submit += rng.bernoulli(0.7) ? 0 : 1;
      else
        submit = rng.uniform_int(0, 30);
      j.submit = submit;
      j.runtime = static_cast<sim::Time>(i + 1);  // tells jobs apart
      j.estimate = j.runtime;
      trace.push_back(j);
    }
    Trace want = trace;
    std::stable_sort(want.begin(), want.end(),
                     [](const Job& a, const Job& b) {
                       return a.submit < b.submit;
                     });
    for (std::size_t i = 0; i < want.size(); ++i)
      want[i].id = static_cast<JobId>(i);
    finalize(trace);
    ASSERT_EQ(trace, want) << "round " << round;
  }
}

TEST(Transforms, RebaseShiftsToZero) {
  Trace trace = test::make_trace({{.submit = 500, .runtime = 10, .procs = 1},
                                  {.submit = 700, .runtime = 10, .procs = 1}});
  rebase(trace);
  EXPECT_EQ(trace[0].submit, 0);
  EXPECT_EQ(trace[1].submit, 200);
}

TEST(Transforms, ScaleInterarrivalHalvesGaps) {
  Trace trace = test::make_trace({{.submit = 0, .runtime = 10, .procs = 1},
                                  {.submit = 100, .runtime = 10, .procs = 1},
                                  {.submit = 300, .runtime = 10, .procs = 1}});
  scale_interarrival(trace, 0.5);
  EXPECT_EQ(trace[0].submit, 0);
  EXPECT_EQ(trace[1].submit, 50);
  EXPECT_EQ(trace[2].submit, 150);
}

TEST(Transforms, ScaleInterarrivalPreservesFirstSubmit) {
  Trace trace = test::make_trace({{.submit = 40, .runtime = 10, .procs = 1},
                                  {.submit = 140, .runtime = 10, .procs = 1}});
  scale_interarrival(trace, 2.0);
  EXPECT_EQ(trace[0].submit, 40);
  EXPECT_EQ(trace[1].submit, 240);
}

TEST(Transforms, ScaleInterarrivalRejectsNonPositive) {
  Trace trace = test::make_trace({{.submit = 0, .runtime = 1, .procs = 1},
                                  {.submit = 1, .runtime = 1, .procs = 1}});
  EXPECT_THROW(scale_interarrival(trace, 0.0), std::invalid_argument);
  EXPECT_THROW(scale_interarrival(trace, -1.0), std::invalid_argument);
}

TEST(Transforms, OfferedLoadComputation) {
  // 2 jobs x (100 s x 4 procs) work over a 100 s arrival span on 8 procs:
  // rho = 800 / (8 * 100) = 1.0
  Trace trace =
      test::make_trace({{.submit = 0, .runtime = 100, .procs = 4},
                        {.submit = 100, .runtime = 100, .procs = 4}});
  EXPECT_DOUBLE_EQ(offered_load(trace, 8), 1.0);
  EXPECT_DOUBLE_EQ(offered_load(trace, 16), 0.5);
}

TEST(Transforms, OfferedLoadEdgeCases) {
  Trace empty;
  EXPECT_DOUBLE_EQ(offered_load(empty, 8), 0.0);
  Trace one = test::make_trace({{.submit = 0, .runtime = 10, .procs = 1}});
  EXPECT_DOUBLE_EQ(offered_load(one, 8), 0.0);
  Trace same_time =
      test::make_trace({{.submit = 5, .runtime = 10, .procs = 1},
                        {.submit = 5, .runtime = 10, .procs = 1}});
  EXPECT_DOUBLE_EQ(offered_load(same_time, 8), 0.0);  // zero span
}

TEST(Transforms, SetOfferedLoadHitsTarget) {
  const CategoryMixModel model{CategoryMixModel::sdsc()};
  sim::Rng rng{31};
  Trace trace = model.generate(5000, rng);
  for (double rho : {0.5, 0.85, 1.1}) {
    Trace copy = trace;
    set_offered_load(copy, 128, rho);
    EXPECT_NEAR(offered_load(copy, 128), rho, 0.03) << "target " << rho;
  }
}

TEST(Transforms, SetOfferedLoadPreservesShapes) {
  const CategoryMixModel model{CategoryMixModel::sdsc()};
  sim::Rng rng{32};
  Trace trace = model.generate(200, rng);
  Trace scaled = trace;
  set_offered_load(scaled, 128, 0.9);
  ASSERT_EQ(scaled.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(scaled[i].runtime, trace[i].runtime);
    EXPECT_EQ(scaled[i].procs, trace[i].procs);
  }
}

TEST(Transforms, TruncateKeepsPrefix) {
  Trace trace = test::make_trace({{.submit = 0, .runtime = 1, .procs = 1},
                                  {.submit = 10, .runtime = 1, .procs = 1},
                                  {.submit = 20, .runtime = 1, .procs = 1}});
  truncate(trace, 2);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].submit, 10);
  truncate(trace, 10);  // larger than size: no-op
  EXPECT_EQ(trace.size(), 2u);
}

TEST(Transforms, ComputeStatsBasics) {
  Trace trace =
      test::make_trace({{.submit = 0, .runtime = 100, .procs = 2},
                        {.submit = 100, .runtime = 300, .procs = 4,
                         .estimate = 600}});
  const TraceStats stats = compute_stats(trace, 8);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.span, 100);
  EXPECT_DOUBLE_EQ(stats.mean_runtime, 200.0);
  EXPECT_DOUBLE_EQ(stats.mean_procs, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean_interarrival, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean_overestimate, (1.0 + 2.0) / 2.0);
  EXPECT_DOUBLE_EQ(stats.offered_load, (200.0 + 1200.0) / (8.0 * 100.0));
}

TEST(Transforms, ComputeStatsEmptyTrace) {
  const Trace empty;
  const TraceStats stats = compute_stats(empty, 8);
  EXPECT_EQ(stats.jobs, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_runtime, 0.0);
}

TEST(Transforms, SetOfferedLoadRejectsNonPositiveRho) {
  Trace trace = test::make_trace({{.submit = 0, .runtime = 10, .procs = 1}});
  EXPECT_THROW(set_offered_load(trace, 128, 0.0), std::invalid_argument);
  EXPECT_THROW(set_offered_load(trace, 128, -0.5), std::invalid_argument);
}

TEST(Transforms, ApplyCancellationsRejectsBadParameters) {
  Trace trace = test::make_trace({{.submit = 0, .runtime = 10, .procs = 1}});
  sim::Rng rng{7};
  EXPECT_THROW(apply_cancellations(trace, -0.1, 100.0, rng),
               std::invalid_argument);
  EXPECT_THROW(apply_cancellations(trace, 1.1, 100.0, rng),
               std::invalid_argument);
  EXPECT_THROW(apply_cancellations(trace, 0.5, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(apply_cancellations(trace, 0.5, -10.0, rng),
               std::invalid_argument);
}

TEST(Transforms, RebaseSurvivesHostileSubmitRange) {
  // Regression for the raw `job.submit -= first` the overflow sweep
  // removed: an SWF carrying one pre-epoch (negative) submit next to a
  // near-kTimeMax submit used to wrap on rebase. It must clamp at
  // kTimeMax instead.
  Trace trace;
  Job early;
  early.submit = -5;
  early.runtime = early.estimate = 1;
  Job late;
  late.submit = sim::kTimeMax - 2;
  late.runtime = late.estimate = 1;
  trace = {early, late};
  rebase(trace);
  EXPECT_EQ(trace[0].submit, 0);
  EXPECT_EQ(trace[1].submit, sim::kTimeMax);  // saturated, not wrapped
}

TEST(Transforms, ComputeStatsSpanSaturatesOnHostileSubmits) {
  Trace trace;
  Job a;
  a.submit = std::numeric_limits<sim::Time>::min() + 1;
  a.runtime = a.estimate = 1;
  Job b;
  b.submit = sim::kTimeMax;
  b.runtime = b.estimate = 1;
  trace = {a, b};
  const TraceStats stats = compute_stats(trace, 8);
  EXPECT_EQ(stats.span, sim::kTimeMax);  // clamped difference
}

TEST(Transforms, ApplyCancellationsClampsDeadlineNearTheFarFuture) {
  Trace trace;
  Job job;
  job.submit = sim::kTimeMax - 1;
  job.runtime = 100;
  job.estimate = 100;
  trace = {job};
  sim::Rng rng{7};
  apply_cancellations(trace, 1.0, 10.0, rng);
  // submit + wait_budget would wrap; the deadline must pin at kTimeMax.
  ASSERT_NE(trace[0].cancel_at, sim::kNoTime);
  EXPECT_EQ(trace[0].cancel_at, sim::kTimeMax);
}

}  // namespace
}  // namespace bfsim::workload
