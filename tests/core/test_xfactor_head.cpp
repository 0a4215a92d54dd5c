#include "core/xfactor_head.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/priority.hpp"
#include "sim/rng.hpp"

namespace bfsim::core {
namespace {

Job make_job(JobId id, Time submit, Time estimate) {
  Job job;
  job.id = id;
  job.submit = submit;
  job.runtime = 1;
  job.estimate = estimate;
  job.procs = 1;
  return job;
}

/// The front of sort_by_priority(queue, XFactor, now).
JobId oracle_head(std::vector<Job> queue, Time now) {
  sort_by_priority(queue, PriorityPolicy::XFactor, now);
  return queue.front().id;
}

TEST(XFactorHead, HeadMatchesTheSortedFrontAtEveryQuery) {
  // Random histories checked at every query against the front of
  // sort_by_priority: arrivals at `now` and requeued victims with past
  // submits; cancels of queued jobs that are not the head and starts of
  // the head; clock steps of 0, 1 and huge; estimates of 1 and near
  // kTimeMax; tied submits and estimates; and pairs built to cross at
  // an exact instant, where the two factors round to the same double.
  const Time estimates[] = {1,           1,          2,
                            3,           7,          60,
                            3600,        1'000'000'000, 1'000'000'001,
                            Time{1} << 52, (Time{1} << 53) + 1,
                            sim::kTimeMax - 7, sim::kTimeMax};
  std::uint64_t queries = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::Rng rng{seed};
    XFactorHead head;
    std::vector<Job> queue;
    std::vector<Job> started;  // candidates for a requeue
    Time now = 0;
    JobId next_id = 0;
    const auto check = [&](const char* what) {
      if (queue.empty()) {
        ASSERT_EQ(head.head(now), nullptr) << what;
        return;
      }
      const Job* got = head.head(now);
      ASSERT_NE(got, nullptr) << what;
      ASSERT_EQ(got->id, oracle_head(queue, now))
          << what << ": seed " << seed << " now " << now << " queued "
          << queue.size();
      ++queries;
    };
    for (int step = 0; step < 400; ++step) {
      const double clock = rng.next_double();
      if (clock < 0.25) {
        // same instant
      } else if (clock < 0.45) {
        now += 1;
      } else if (clock < 0.9) {
        now += rng.uniform_int(2, 500);
      } else {
        now += rng.uniform_int(1'000'000, 1'000'000'000);
      }
      for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
        if (!started.empty() && rng.bernoulli(0.15)) {
          // A requeued victim: its own id and original submit.
          const auto pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(started.size()) - 1));
          const Job victim = started[pick];
          started.erase(started.begin() + static_cast<std::ptrdiff_t>(pick));
          queue.push_back(victim);
          head.insert(victim, now);
        } else {
          Time submit = now;
          if (rng.bernoulli(0.1) && !queue.empty())
            submit = queue[static_cast<std::size_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(queue.size()) - 1))]
                         .submit;
          Time estimate =
              rng.bernoulli(0.6)
                  ? estimates[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(std::size(estimates)) -
                               1))]
                  : rng.uniform_int(1, 100'000);
          if (!queue.empty() && rng.bernoulli(0.1)) {
            // Cross an existing job exactly: with estimates e1 < e2 the
            // lines of submits s1 and s2 meet where
            // (t - s1) e2 = (t - s2) e1; pick s2 so they meet at an
            // integer instant a few seconds ahead.
            const Job& other = queue[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(queue.size()) -
                                       1))];
            const Time e1 = std::max<Time>(other.estimate, 1);
            if (e1 < 1'000'000) {
              const Time e2 = e1 + rng.uniform_int(1, 3);
              const Time meet = now + rng.uniform_int(1, 20);
              // (meet - s1) e2 = (meet - s2) e1  =>  s2 = meet - (meet - s1) e2 / e1
              const Time lead = (meet - other.submit) * e2;
              if (lead % e1 == 0 && meet - lead / e1 <= now &&
                  meet - lead / e1 >= 0) {
                submit = meet - lead / e1;
                estimate = e2;
              }
            }
          }
          const Job job = make_job(next_id++, submit, estimate);
          queue.push_back(job);
          head.insert(job, now);
        }
      }
      check("after arrivals");
      if (!queue.empty() && rng.bernoulli(0.3)) {
        // Cancel a queued job that is not the head.
        const JobId front = head.head(now)->id;
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(queue.size()) - 1));
        if (queue[pick].id != front) {
          head.erase(queue[pick].id, now);
          queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
          check("after a cancel");
        }
      }
      // Start the head a few times, as a pass would.
      for (std::int64_t n = rng.uniform_int(0, 3); n > 0 && !queue.empty();
           --n) {
        const JobId id = head.head(now)->id;
        head.erase(id, now);
        const auto it = std::find_if(queue.begin(), queue.end(),
                                     [id](const Job& j) { return j.id == id; });
        ASSERT_NE(it, queue.end());
        started.push_back(*it);
        queue.erase(it);
        check("after a start");
      }
      ASSERT_EQ(head.size(), queue.size());
    }
  }
  EXPECT_GT(queries, 10'000u);
}

TEST(XFactorHead, ExactCrossingsResolveLikeTheSort) {
  // Two jobs whose lines meet at an integer instant: before it the
  // flatter one leads, at it the factors are equal doubles and the
  // earlier submit wins, after it the steeper one leads. Query the
  // instants around the crossing one by one.
  for (const Time scale : {Time{1}, Time{1000}, Time{1'000'000}}) {
    XFactorHead head;
    const std::vector<Job> queue{make_job(0, 0, 4 * scale),
                                 make_job(1, 30 * scale, 2 * scale)};
    // (t - 0) / 4s = (t - 30s) / 2s  =>  t = 60s
    const Time meet = 60 * scale;
    for (const Job& job : queue) head.insert(job, 30 * scale);
    const Time stride = std::max<Time>(1, scale / 10);
    for (Time now = 30 * scale; now <= 90 * scale;) {
      ASSERT_EQ(head.head(now)->id, oracle_head(queue, now))
          << "scale " << scale << " now " << now;
      if (now >= meet - 4 && now <= meet + 4)
        now += 1;
      else if (now < meet - 4)
        now = std::min(now + stride, meet - 4);
      else
        now += stride;
    }
    XFactorHead fresh;
    for (const Job& job : queue) fresh.insert(job, 30 * scale);
    EXPECT_EQ(fresh.head(meet)->id, 0u);  // a tie: the earlier submit
    EXPECT_EQ(fresh.head(meet + 1)->id, 1u);
  }
}

TEST(XFactorHead, RejectsDuplicatesAndAbsentIds) {
  XFactorHead head;
  head.insert(make_job(3, 0, 10), 0);
  EXPECT_THROW(head.insert(make_job(3, 0, 10), 0), std::logic_error);
  EXPECT_THROW(head.erase(4, 0), std::logic_error);
  head.erase(3, 0);
  EXPECT_THROW(head.erase(3, 0), std::logic_error);
  EXPECT_EQ(head.size(), 0u);
  EXPECT_EQ(head.head(5), nullptr);
}

TEST(XFactorHead, ArrivalsAtTheirSubmitPlayFewMatches) {
  // An arrival at its own submit instant has the least factor in the
  // queue, so its insert stops at the first match against an occupied
  // subtree, which it loses: refilling half of a 1024-slot tournament
  // costs about two matches per arrival, not a ten-match root path.
  XFactorHead head;
  for (JobId id = 0; id < 1024; ++id) head.insert(make_job(id, 0, 100), 0);
  for (JobId id = 0; id < 512; ++id) head.erase(id, 200);
  const std::uint64_t before = head.node_updates();
  for (JobId id = 1024; id < 1024 + 512; ++id)
    head.insert(make_job(id, 200, 50), 200);
  EXPECT_LE(head.node_updates() - before, 3u * 512u);
  EXPECT_EQ(head.head(200)->id, 512u);  // oldest factor, then lowest id
}

}  // namespace
}  // namespace bfsim::core
