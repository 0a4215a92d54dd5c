// Pinned schedule digests for every scheduler kind.
//
// Each cell replays one small random trace and folds every outcome's
// start, end and requeue count into a 64-bit FNV-1a digest. The grid
// crosses the priority policy (fcfs, sjf, xfactor), the estimate
// accuracy (exact, every estimate twice the runtime), burst-buffer
// demands (none, contended) and outages (none, a seeded failure
// trace). The pinned values are the schedules of the dedicated plan
// and slack implementations that plan-as-unbounded-kres and
// slack-on-conservative replaced, so any drift in those refactors
// shows up here as a changed digest. The nobackfill, easy, kres and
// selective rows were recorded before the xfactor queue order moved
// from a per-pass re-sort to an insertion repair, so they pin that
// path at cell level too.
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

TEST(ScheduleDigests, NoBackfill) {
  expect_digests(SchedulerKind::Fcfs, {},
                 {
                     0x05a853797646dfafULL,  // fcfs/exact/nobb/clean
                     0xbab3f30422641e42ULL,  // fcfs/exact/nobb/outages
                     0x05a853797646dfafULL,  // fcfs/exact/bb/clean
                     0x8e6d27fba25956e7ULL,  // fcfs/exact/bb/outages
                     0x05a853797646dfafULL,  // fcfs/2x/nobb/clean
                     0xbab3f30422641e42ULL,  // fcfs/2x/nobb/outages
                     0x05a853797646dfafULL,  // fcfs/2x/bb/clean
                     0x8e6d27fba25956e7ULL,  // fcfs/2x/bb/outages
                     0x64011af068d09699ULL,  // sjf/exact/nobb/clean
                     0x0e6e9f1abe6410bfULL,  // sjf/exact/nobb/outages
                     0x64011af068d09699ULL,  // sjf/exact/bb/clean
                     0x443058f00b3d8c28ULL,  // sjf/exact/bb/outages
                     0x64011af068d09699ULL,  // sjf/2x/nobb/clean
                     0x0e6e9f1abe6410bfULL,  // sjf/2x/nobb/outages
                     0x64011af068d09699ULL,  // sjf/2x/bb/clean
                     0x443058f00b3d8c28ULL,  // sjf/2x/bb/outages
                     0xa1c5807dbc38d4a6ULL,  // xfactor/exact/nobb/clean
                     0x495cc0d1b2c04a8cULL,  // xfactor/exact/nobb/outages
                     0xa1c5807dbc38d4a6ULL,  // xfactor/exact/bb/clean
                     0xc6e2c68832d38dc6ULL,  // xfactor/exact/bb/outages
                     0xa1c5807dbc38d4a6ULL,  // xfactor/2x/nobb/clean
                     0x495cc0d1b2c04a8cULL,  // xfactor/2x/nobb/outages
                     0xa1c5807dbc38d4a6ULL,  // xfactor/2x/bb/clean
                     0xc6e2c68832d38dc6ULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, Easy) {
  expect_digests(SchedulerKind::Easy, {},
                 {
                     0xbc0ebae9754e417aULL,  // fcfs/exact/nobb/clean
                     0x518942dddf514b44ULL,  // fcfs/exact/nobb/outages
                     0x08ce1eb40c27f6a2ULL,  // fcfs/exact/bb/clean
                     0x0ef897fa810cb3e2ULL,  // fcfs/exact/bb/outages
                     0x1953e8f7b80c6689ULL,  // fcfs/2x/nobb/clean
                     0xc2979036c4393d30ULL,  // fcfs/2x/nobb/outages
                     0xe76ce0703177a318ULL,  // fcfs/2x/bb/clean
                     0xd0a32451f521a8e5ULL,  // fcfs/2x/bb/outages
                     0x46f4610b27388ed4ULL,  // sjf/exact/nobb/clean
                     0xf431c7cfdffc2c67ULL,  // sjf/exact/nobb/outages
                     0x219981d130c8060fULL,  // sjf/exact/bb/clean
                     0xbb29df34ed8a8023ULL,  // sjf/exact/bb/outages
                     0xdc598606863949ebULL,  // sjf/2x/nobb/clean
                     0xb8f50c554f2ce58cULL,  // sjf/2x/nobb/outages
                     0xedebbec9db340380ULL,  // sjf/2x/bb/clean
                     0x8cfa89b4337c1bd3ULL,  // sjf/2x/bb/outages
                     0xe195fe2613dec503ULL,  // xfactor/exact/nobb/clean
                     0x779fd100b86b2df2ULL,  // xfactor/exact/nobb/outages
                     0x3cf2df483ddd48ffULL,  // xfactor/exact/bb/clean
                     0xd93f4af7026df0ceULL,  // xfactor/exact/bb/outages
                     0x3cf6e45ba1681c44ULL,  // xfactor/2x/nobb/clean
                     0x7247935a1633030fULL,  // xfactor/2x/nobb/outages
                     0x4d272b10db543c37ULL,  // xfactor/2x/bb/clean
                     0x04d1f744ba2cda67ULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, KReservation) {
  expect_digests(SchedulerKind::KReservation, {},
                 {
                     0x00c0cc924d931fecULL,  // fcfs/exact/nobb/clean
                     0x80cadeac9462969aULL,  // fcfs/exact/nobb/outages
                     0x92cfb7ef40f1d2a5ULL,  // fcfs/exact/bb/clean
                     0x63e80e3791e4aa2bULL,  // fcfs/exact/bb/outages
                     0xd5cfb52931f6790dULL,  // fcfs/2x/nobb/clean
                     0x996280e07b355d90ULL,  // fcfs/2x/nobb/outages
                     0xb636cb7578838f3cULL,  // fcfs/2x/bb/clean
                     0xaca84a3debeaa989ULL,  // fcfs/2x/bb/outages
                     0xfeb38ab287f811bcULL,  // sjf/exact/nobb/clean
                     0xb08de896e1abf24dULL,  // sjf/exact/nobb/outages
                     0xd08804dc42f19aafULL,  // sjf/exact/bb/clean
                     0x1b535514f74d4302ULL,  // sjf/exact/bb/outages
                     0x244613fb90863d9cULL,  // sjf/2x/nobb/clean
                     0xe2704b517f620207ULL,  // sjf/2x/nobb/outages
                     0x77d303f6b12a6fe3ULL,  // sjf/2x/bb/clean
                     0xb168bf5e22b48514ULL,  // sjf/2x/bb/outages
                     0xcbf822a6043bbb22ULL,  // xfactor/exact/nobb/clean
                     0x87a93f416e849a82ULL,  // xfactor/exact/nobb/outages
                     0xb4541b02be0d5f7dULL,  // xfactor/exact/bb/clean
                     0xc3121373512061a3ULL,  // xfactor/exact/bb/outages
                     0x4019ebfc2dd9cc85ULL,  // xfactor/2x/nobb/clean
                     0x3ecc7e95b3b66a37ULL,  // xfactor/2x/nobb/outages
                     0x41240ed36d2cfcd9ULL,  // xfactor/2x/bb/clean
                     0x5f6a4cf639f960acULL,  // xfactor/2x/bb/outages
                 });
}

TEST(ScheduleDigests, Selective) {
  expect_digests(SchedulerKind::Selective, {},
                 {
                     0x4e69fae5a85bf1afULL,  // fcfs/exact/nobb/clean
                     0xd0589c3361a5c9d2ULL,  // fcfs/exact/nobb/outages
                     0x9436b223d0ec6204ULL,  // fcfs/exact/bb/clean
                     0xd35fb96c3f8e7704ULL,  // fcfs/exact/bb/outages
                     0x353b90d78fa80a76ULL,  // fcfs/2x/nobb/clean
                     0x489222ddcbf3115aULL,  // fcfs/2x/nobb/outages
                     0x3f68edfad5e86c95ULL,  // fcfs/2x/bb/clean
                     0x9dd28ba64caa3f30ULL,  // fcfs/2x/bb/outages
                     0xff8204ba8f444916ULL,  // sjf/exact/nobb/clean
                     0x11b8edb44f08a8c5ULL,  // sjf/exact/nobb/outages
                     0x09a49c01127e4381ULL,  // sjf/exact/bb/clean
                     0x2242a88a1c8af272ULL,  // sjf/exact/bb/outages
                     0xfa50b02ad61934deULL,  // sjf/2x/nobb/clean
                     0xc53d4164acc71ce1ULL,  // sjf/2x/nobb/outages
                     0x1ee4ae1efb5ab7caULL,  // sjf/2x/bb/clean
                     0x021689317769a66fULL,  // sjf/2x/bb/outages
                     0x97f80e6c8a127547ULL,  // xfactor/exact/nobb/clean
                     0x072b697d91a34158ULL,  // xfactor/exact/nobb/outages
                     0x9abe45b4c06d3d9aULL,  // xfactor/exact/bb/clean
                     0x6c2b8446a1bb129eULL,  // xfactor/exact/bb/outages
                     0xf308845c011bf333ULL,  // xfactor/2x/nobb/clean
                     0x719a198a917adcc9ULL,  // xfactor/2x/nobb/outages
                     0x9e7900024d27ae1aULL,  // xfactor/2x/bb/clean
                     0xd8872fc8eb899661ULL,  // xfactor/2x/bb/outages
                 });
}

}  // namespace
}  // namespace bfsim::core
