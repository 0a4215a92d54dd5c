// Pinned schedule digests for the reservation-holding schedulers.
//
// Each cell replays one small random trace and folds every outcome's
// start, end and requeue count into a 64-bit FNV-1a digest. The grid
// crosses the priority policy (fcfs, sjf, xfactor), the estimate
// accuracy (exact, every estimate twice the runtime), burst-buffer
// demands (none, contended) and outages (none, a seeded failure
// trace). The pinned values are the schedules of the dedicated plan
// and slack implementations that plan-as-unbounded-kres and
// slack-on-conservative replaced, so any drift in those refactors
// shows up here as a changed digest.
//
// One deliberate exception: under xfactor with outages the old plan
// skipped its replan at repairs and kept a plan ordered by a stale
// xfactor (two of these four cells showed it). Those plan cells pin
// kres at unbounded reservation depth instead, which replans at every
// pass, repairs included -- the semantics plan adopted.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/simulation.hpp"
#include "sim/failure.hpp"
#include "test_support.hpp"

namespace bfsim::core {
namespace {

constexpr int kProcs = 32;
constexpr int kBurstBuffer = 64;
constexpr std::size_t kJobs = 200;

struct Cell {
  PriorityPolicy priority;
  bool inexact;  ///< every estimate is twice the runtime
  bool bb;       ///< burst-buffer demands on a 64-GB buffer
  bool outages;  ///< seeded failure trace with kill-requeue
};

/// The 24 cells in a fixed order: priority outermost, outages innermost.
std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (const PriorityPolicy priority :
       {PriorityPolicy::Fcfs, PriorityPolicy::Sjf, PriorityPolicy::XFactor})
    for (const bool inexact : {false, true})
      for (const bool bb : {false, true})
        for (const bool outages : {false, true})
          cells.push_back({priority, inexact, bb, outages});
  return cells;
}

std::string label(const Cell& cell) {
  return to_string(cell.priority) + (cell.inexact ? "/2x" : "/exact") +
         (cell.bb ? "/bb" : "/nobb") + (cell.outages ? "/outages" : "/clean");
}

std::uint64_t fnv1a(std::uint64_t hash, std::int64_t value) {
  auto bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= bits & 0xffu;
    hash *= 0x100000001b3ULL;
    bits >>= 8;
  }
  return hash;
}

std::uint64_t digest(const SimulationResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const JobOutcome& outcome : result.outcomes) {
    hash = fnv1a(hash, outcome.start);
    hash = fnv1a(hash, outcome.end);
    hash = fnv1a(hash, outcome.requeues);
  }
  return hash;
}

/// Replay `cell` through the scheduler `kind` builds; returns the
/// digest and checks that outage cells really killed something.
std::uint64_t run_cell(const Cell& cell, SchedulerKind kind,
                       const SchedulerExtras& extras) {
  Trace trace = test::random_trace(kJobs, kProcs, 29, /*overestimate=*/false);
  if (cell.inexact)
    for (Job& job : trace) job.estimate = 2 * job.runtime;
  SchedulerConfig config{kProcs, cell.priority};
  if (cell.bb) {
    test::assign_random_bb(trace, 24, 31);
    config.burst_buffer = kBurstBuffer;
  }
  sim::FailureTrace failures;
  if (cell.outages)
    failures = sim::generate_failures({.mean_uptime = 3.0 * sim::kHour,
                                       .mean_repair = 1.0 * sim::kHour,
                                       .max_procs_lost = 8,
                                       .max_bb_lost = cell.bb ? 16 : 0},
                                      kProcs, config.burst_buffer, 41);
  const auto scheduler = make_scheduler(kind, config, extras);
  const SimulationResult result = run_simulation(
      trace, *scheduler,
      {.validate = true, .failures = cell.outages ? &failures : nullptr});
  if (cell.outages) {
    EXPECT_GT(result.kills, 0u) << label(cell);
  }
  return digest(result);
}

void expect_digests(SchedulerKind kind, const SchedulerExtras& extras,
                    const std::vector<std::uint64_t>& expected) {
  const std::vector<Cell> cells = grid();
  ASSERT_EQ(cells.size(), expected.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SchedulerKind cell_kind = kind;
    SchedulerExtras cell_extras = extras;
    if (kind == SchedulerKind::Plan &&
        cells[i].priority == PriorityPolicy::XFactor && cells[i].outages) {
      // See the file comment: these cells pin plan's replan-at-repair
      // semantics, i.e. kres at unbounded reservation depth.
      cell_kind = SchedulerKind::KReservation;
      cell_extras.reservation_depth = std::numeric_limits<int>::max();
    }
    const std::uint64_t actual = run_cell(cells[i], cell_kind, cell_extras);
    EXPECT_EQ(actual, expected[i])
        << label(cells[i]) << ": 0x" << std::hex << actual;
  }
}

TEST(ScheduleDigests, Conservative) {
  expect_digests(SchedulerKind::Conservative, {},
                 {
                     0xa6e3c2e9425dbc99ULL,  // fcfs/exact/nobb/clean
                     0x53e25db0c69e8d85ULL,  // fcfs/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // fcfs/exact/bb/clean
                     0x100ea14f3abae11bULL,  // fcfs/exact/bb/outages
                     0x05b94602ce119457ULL,  // fcfs/2x/nobb/clean
                     0x8667d2ef97e76acfULL,  // fcfs/2x/nobb/outages
                     0xa2d1233bf06ac937ULL,  // fcfs/2x/bb/clean
                     0xda54263ebfc17515ULL,  // fcfs/2x/bb/outages
                     0xa6e3c2e9425dbc99ULL,  // sjf/exact/nobb/clean
                     0x275f14016e8084ffULL,  // sjf/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // sjf/exact/bb/clean
                     0x30937da40c4e9c61ULL,  // sjf/exact/bb/outages
                     0xffa18cbf4688c58dULL,  // sjf/2x/nobb/clean
                     0x14a370cd8797aeeaULL,  // sjf/2x/nobb/outages
                     0x53028343c8152aebULL,  // sjf/2x/bb/clean
                     0x2abb796b6c62eb6cULL,  // sjf/2x/bb/outages
                     0xa6e3c2e9425dbc99ULL,  // xfactor/exact/nobb/clean
                     0xa452e9fe03976b9dULL,  // xfactor/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // xfactor/exact/bb/clean
                     0xdc8e9f32599de471ULL,  // xfactor/exact/bb/outages
                     0xeb93fbc81707af9bULL,  // xfactor/2x/nobb/clean
                     0x675eb95dc0b7224dULL,  // xfactor/2x/nobb/outages
                     0x524f59a95d270f55ULL,  // xfactor/2x/bb/clean
                     0xbf95bf48a6dba531ULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, SlackZero) {
  expect_digests(SchedulerKind::Slack, {.slack_factor = 0.0},
                 {
                     0xa6e3c2e9425dbc99ULL,  // fcfs/exact/nobb/clean
                     0x53e25db0c69e8d85ULL,  // fcfs/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // fcfs/exact/bb/clean
                     0x100ea14f3abae11bULL,  // fcfs/exact/bb/outages
                     0x294d569ffdd77bedULL,  // fcfs/2x/nobb/clean
                     0xadc8cb91d2bba92eULL,  // fcfs/2x/nobb/outages
                     0x00011086f2c1718aULL,  // fcfs/2x/bb/clean
                     0x079eabf98e2df4dbULL,  // fcfs/2x/bb/outages
                     0xa6e3c2e9425dbc99ULL,  // sjf/exact/nobb/clean
                     0x275f14016e8084ffULL,  // sjf/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // sjf/exact/bb/clean
                     0x30937da40c4e9c61ULL,  // sjf/exact/bb/outages
                     0xba3beaa0ffe0b7f6ULL,  // sjf/2x/nobb/clean
                     0x66b55384383aa5e5ULL,  // sjf/2x/nobb/outages
                     0xe4a65e29932a15cfULL,  // sjf/2x/bb/clean
                     0x686ad99b244ceb1aULL,  // sjf/2x/bb/outages
                     0xa6e3c2e9425dbc99ULL,  // xfactor/exact/nobb/clean
                     0xa452e9fe03976b9dULL,  // xfactor/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // xfactor/exact/bb/clean
                     0xdc8e9f32599de471ULL,  // xfactor/exact/bb/outages
                     0xeb93fbc81707af9bULL,  // xfactor/2x/nobb/clean
                     0x675eb95dc0b7224dULL,  // xfactor/2x/nobb/outages
                     0x524f59a95d270f55ULL,  // xfactor/2x/bb/clean
                     0xbf95bf48a6dba531ULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, SlackTwo) {
  expect_digests(SchedulerKind::Slack, {.slack_factor = 2.0},
                 {
                     0x6645877a693f5449ULL,  // fcfs/exact/nobb/clean
                     0x9e8de0e83c76bc93ULL,  // fcfs/exact/nobb/outages
                     0x7b6ddc58edfc8d06ULL,  // fcfs/exact/bb/clean
                     0x3de9e8ca3745d59aULL,  // fcfs/exact/bb/outages
                     0xb47f10010760dd5aULL,  // fcfs/2x/nobb/clean
                     0x6f02cfd6b5f59e08ULL,  // fcfs/2x/nobb/outages
                     0x8b2447f045ba5ae0ULL,  // fcfs/2x/bb/clean
                     0xbc4be6c2b20b31beULL,  // fcfs/2x/bb/outages
                     0x6645877a693f5449ULL,  // sjf/exact/nobb/clean
                     0x055c7f43475ed95aULL,  // sjf/exact/nobb/outages
                     0x7b6ddc58edfc8d06ULL,  // sjf/exact/bb/clean
                     0x3fd88c421cc65bf6ULL,  // sjf/exact/bb/outages
                     0x1ebe9580842f9e36ULL,  // sjf/2x/nobb/clean
                     0xdae84eade5307f05ULL,  // sjf/2x/nobb/outages
                     0x9090cdb8571e1f87ULL,  // sjf/2x/bb/clean
                     0xffdcf1be93165ea1ULL,  // sjf/2x/bb/outages
                     0x6645877a693f5449ULL,  // xfactor/exact/nobb/clean
                     0x9e9ec9db42206bafULL,  // xfactor/exact/nobb/outages
                     0x7b6ddc58edfc8d06ULL,  // xfactor/exact/bb/clean
                     0x04981e44c15eb773ULL,  // xfactor/exact/bb/outages
                     0x87a8a4bd40f30bb1ULL,  // xfactor/2x/nobb/clean
                     0x22d70741fd3d3101ULL,  // xfactor/2x/nobb/outages
                     0xe3bade3401411d37ULL,  // xfactor/2x/bb/clean
                     0x28282dc73d19de0aULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, Plan) {
  expect_digests(SchedulerKind::Plan, {},
                 {
                     0xa6e3c2e9425dbc99ULL,  // fcfs/exact/nobb/clean
                     0xfd5c90cfac6fc6a6ULL,  // fcfs/exact/nobb/outages
                     0x5bf6c5403819209dULL,  // fcfs/exact/bb/clean
                     0xa0c905a9a2c1df7fULL,  // fcfs/exact/bb/outages
                     0xf45d8f79e45f6be6ULL,  // fcfs/2x/nobb/clean
                     0x61fa0c6beb851a45ULL,  // fcfs/2x/nobb/outages
                     0x9c4d8d17af00456cULL,  // fcfs/2x/bb/clean
                     0xf7aecdbb84859ee6ULL,  // fcfs/2x/bb/outages
                     0x236c20b7fb2d8abdULL,  // sjf/exact/nobb/clean
                     0x3fba87467f12f4f9ULL,  // sjf/exact/nobb/outages
                     0x0dd51cafd9fae142ULL,  // sjf/exact/bb/clean
                     0x73355c93db2c4717ULL,  // sjf/exact/bb/outages
                     0x8623f50eaa4619f4ULL,  // sjf/2x/nobb/clean
                     0x21d4e735d16539eeULL,  // sjf/2x/nobb/outages
                     0xfc6517f399f8deecULL,  // sjf/2x/bb/clean
                     0x88d919f60d1ccba5ULL,  // sjf/2x/bb/outages
                     0x2580bdc6fbe0cb79ULL,  // xfactor/exact/nobb/clean
                     0xa958b141b5e000c2ULL,  // xfactor/exact/nobb/outages
                     0x93337f2e224223c6ULL,  // xfactor/exact/bb/clean
                     0x43a021fa749a0dcfULL,  // xfactor/exact/bb/outages
                     0x7a52acbdb6479612ULL,  // xfactor/2x/nobb/clean
                     0xc54a19ad72a05f0fULL,  // xfactor/2x/nobb/outages
                     0x295691e6de947998ULL,  // xfactor/2x/bb/clean
                     0x7597d28329be5a23ULL,  // xfactor/2x/bb/outages
                 });
}

}  // namespace
}  // namespace bfsim::core
