#include "core/priority.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "test_support.hpp"

namespace bfsim::core {
namespace {

Job make_job(JobId id, Time submit, Time estimate, int procs) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.estimate = estimate;
  j.runtime = estimate;
  j.procs = procs;
  return j;
}

TEST(Priority, NamesRoundTrip) {
  for (const auto policy :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor,
        PriorityPolicy::Ljf, PriorityPolicy::Narrowest,
        PriorityPolicy::Widest})
    EXPECT_EQ(priority_from_string(to_string(policy)), policy);
  EXPECT_EQ(priority_from_string("xf"), PriorityPolicy::XFactor);
  EXPECT_THROW((void)priority_from_string("bogus"), std::invalid_argument);
}

TEST(Priority, XFactorFormula) {
  // xfactor = (wait + estimate) / estimate
  const Job j = make_job(0, 100, 50, 1);
  EXPECT_DOUBLE_EQ(xfactor(j, 100), 1.0);   // just arrived
  EXPECT_DOUBLE_EQ(xfactor(j, 150), 2.0);   // waited one estimate
  EXPECT_DOUBLE_EQ(xfactor(j, 350), 6.0);
}

TEST(Priority, XFactorGrowsFasterForShortJobs) {
  const Job short_job = make_job(0, 0, 60, 1);
  const Job long_job = make_job(1, 0, 6000, 1);
  // Same wait time, the short job's factor rises far faster -- this is
  // why XFactor implicitly favors short jobs (paper Section 4.2).
  EXPECT_GT(xfactor(short_job, 600), xfactor(long_job, 600));
}

TEST(Priority, FcfsOrdersByArrival) {
  std::vector<Job> queue{make_job(1, 20, 10, 1), make_job(0, 10, 99, 1)};
  sort_by_priority(queue, PriorityPolicy::Fcfs, 100);
  EXPECT_EQ(queue[0].id, 0u);
  EXPECT_EQ(queue[1].id, 1u);
}

TEST(Priority, FcfsTieBreaksById) {
  std::vector<Job> queue{make_job(5, 10, 1, 1), make_job(2, 10, 1, 1)};
  sort_by_priority(queue, PriorityPolicy::Fcfs, 100);
  EXPECT_EQ(queue[0].id, 2u);
}

TEST(Priority, SjfOrdersByEstimate) {
  std::vector<Job> queue{make_job(0, 0, 500, 1), make_job(1, 5, 100, 1),
                         make_job(2, 1, 300, 1)};
  sort_by_priority(queue, PriorityPolicy::Sjf, 100);
  EXPECT_EQ(queue[0].id, 1u);
  EXPECT_EQ(queue[1].id, 2u);
  EXPECT_EQ(queue[2].id, 0u);
}

TEST(Priority, SjfTieBreaksByArrival) {
  std::vector<Job> queue{make_job(1, 20, 100, 1), make_job(0, 10, 100, 1)};
  sort_by_priority(queue, PriorityPolicy::Sjf, 100);
  EXPECT_EQ(queue[0].id, 0u);
}

TEST(Priority, LjfIsReverseOfSjf) {
  std::vector<Job> queue{make_job(0, 0, 100, 1), make_job(1, 0, 500, 1)};
  sort_by_priority(queue, PriorityPolicy::Ljf, 100);
  EXPECT_EQ(queue[0].id, 1u);
}

TEST(Priority, XFactorPrefersLongestRelativeWait) {
  // Both arrived at 0; at now=200 the short job has the higher factor.
  std::vector<Job> queue{make_job(0, 0, 1000, 1), make_job(1, 0, 100, 1)};
  sort_by_priority(queue, PriorityPolicy::XFactor, 200);
  EXPECT_EQ(queue[0].id, 1u);
}

TEST(Priority, XFactorIsTimeDependent) {
  // j0 waits longer, j1 is shorter; the order flips as time passes.
  std::vector<Job> queue{make_job(0, 0, 1000, 1), make_job(1, 90, 100, 1)};
  sort_by_priority(queue, PriorityPolicy::XFactor, 100);
  // t=100: xf0 = 1.1, xf1 = 1.1 -> tie broken by arrival: j0 first.
  EXPECT_EQ(queue[0].id, 0u);
  sort_by_priority(queue, PriorityPolicy::XFactor, 500);
  // t=500: xf0 = 1.5, xf1 = 5.1 -> j1 first.
  EXPECT_EQ(queue[0].id, 1u);
}

TEST(Priority, WidthPolicies) {
  std::vector<Job> queue{make_job(0, 0, 10, 64), make_job(1, 1, 10, 2),
                         make_job(2, 2, 10, 16)};
  sort_by_priority(queue, PriorityPolicy::Narrowest, 100);
  EXPECT_EQ(queue[0].id, 1u);
  EXPECT_EQ(queue[2].id, 0u);
  sort_by_priority(queue, PriorityPolicy::Widest, 100);
  EXPECT_EQ(queue[0].id, 0u);
  EXPECT_EQ(queue[2].id, 1u);
}

TEST(Priority, ComparatorIsStrictWeakOrder) {
  // Irreflexivity and antisymmetry over a brute-force sample.
  std::vector<Job> jobs;
  sim::Rng rng{4};
  for (JobId i = 0; i < 30; ++i)
    jobs.push_back(make_job(i, rng.uniform_int(0, 5),
                            rng.uniform_int(1, 4) * 100,
                            static_cast<int>(rng.uniform_int(1, 8))));
  for (const auto policy :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor,
        PriorityPolicy::Ljf, PriorityPolicy::Narrowest,
        PriorityPolicy::Widest}) {
    const PriorityOrder less{policy, 1000};
    for (const Job& a : jobs) {
      EXPECT_FALSE(less(a, a));
      for (const Job& b : jobs)
        if (less(a, b)) {
          EXPECT_FALSE(less(b, a));
        }
    }
  }
}

TEST(Priority, RestoreXFactorOrderMatchesTheStableSort) {
  // Random queue histories, repaired pass after pass the way
  // SchedulerBase keeps its queue: the repair must reproduce exactly the
  // permutation stable_sort gives, from whatever order the previous
  // repair left. Covers clock steps of zero and huge ones, arrivals at
  // `now` and with past submits (requeued victims), erases anywhere,
  // tied submits and estimates, and estimates of 1 and near kTimeMax
  // (whose expansion factors round to exact ties).
  const Time estimates[] = {1, 1, 2, 60, 60, 3600, sim::kTimeMax - 7,
                            sim::kTimeMax};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng{seed};
    std::vector<Job> queue;
    std::vector<double> keys;
    Time now = 0;
    JobId next_id = 0;
    for (int pass = 0; pass < 300; ++pass) {
      const double step = rng.next_double();
      if (step >= 0.3)
        now += step < 0.9 ? rng.uniform_int(1, 500)
                          : rng.uniform_int(1'000'000, 1'000'000'000);
      for (std::int64_t erases = rng.uniform_int(0, 3);
           erases > 0 && !queue.empty(); --erases)
        queue.erase(queue.begin() +
                    rng.uniform_int(0, static_cast<std::int64_t>(
                                           queue.size()) - 1));
      for (std::int64_t arrivals = rng.uniform_int(0, 4); arrivals > 0;
           --arrivals) {
        Time submit = now;
        if (rng.bernoulli(0.4))
          submit = !queue.empty() && rng.bernoulli(0.5)
                       ? queue[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(queue.size()) - 1))]
                             .submit
                       : rng.uniform_int(0, now);
        const Time estimate =
            rng.bernoulli(0.5)
                ? estimates[static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(std::size(estimates)) -
                             1))]
                : rng.uniform_int(1, 100'000);
        queue.push_back(make_job(next_id++, submit, estimate, 1));
      }
      std::vector<Job> want = queue;
      sort_by_priority(want, PriorityPolicy::XFactor, now);
      restore_xfactor_order(queue.data(), queue.data() + queue.size(), now,
                            keys);
      ASSERT_EQ(queue, want) << "seed " << seed << " pass " << pass
                             << " now " << now;
    }
  }
}

TEST(Priority, PaperPoliciesConstant) {
  ASSERT_EQ(std::size(kPaperPolicies), 3u);
  EXPECT_EQ(kPaperPolicies[0], PriorityPolicy::Fcfs);
  EXPECT_EQ(kPaperPolicies[1], PriorityPolicy::Sjf);
  EXPECT_EQ(kPaperPolicies[2], PriorityPolicy::XFactor);
}

}  // namespace
}  // namespace bfsim::core
