// exp::journal -- the crash-safe checkpoint layer under Sweep::run.
// The acceptance property is resume fidelity: kill a grid partway
// (simulated by a permanent fault), relaunch with the same journal, and
// the final report must be byte-identical to an uninterrupted run.
#include "exp/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/fault.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/report.hpp"
#include "metrics/serialize.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace bfsim::exp {
namespace {

constexpr std::size_t kJobs = 120;

Scenario small_scenario(core::SchedulerKind kind, std::uint64_t seed) {
  Scenario s;
  s.trace = TraceKind::Sdsc;
  s.jobs = kJobs;
  s.load = kHighLoad;
  s.scheduler = kind;
  s.priority = core::PriorityPolicy::Fcfs;
  s.seed = seed;
  return s;
}

Sweep small_grid() {
  Sweep sweep;
  for (const auto kind :
       {core::SchedulerKind::Conservative, core::SchedulerKind::Easy,
        core::SchedulerKind::Fcfs})
    (void)sweep.add_replications(small_scenario(kind, 1), 2,
                                 core::to_string(kind));
  return sweep;
}

std::string report_bytes(const SweepReport& report) {
  std::string bytes = metrics::metrics_json(report.merged);
  for (const CellResult& cell : report.cells)
    bytes += "\n" + cell.tag + " " + metrics::metrics_json(cell.metrics);
  return bytes;
}

/// Fresh per-test journal path inside gtest's temp dir.
std::string journal_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "bfsim-journal-" + name;
  std::remove(path.c_str());
  return path;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = util::log_level();
    util::set_log_level(util::LogLevel::Off);
    util::reset_log_limits();
  }
  void TearDown() override {
    util::set_log_level(saved_);
    util::reset_log_limits();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;

 private:
  util::LogLevel saved_ = util::LogLevel::Warn;
};

TEST_F(JournalTest, MissingFileReadsAsEmpty) {
  const JournalContents contents =
      read_journal(::testing::TempDir() + "bfsim-journal-never-written");
  EXPECT_TRUE(contents.cells.empty());
  EXPECT_FALSE(contents.truncated);
}

TEST_F(JournalTest, FailedSyncThrowsInsteadOfCheckpointing) {
#ifndef __linux__
  GTEST_SKIP() << "relies on fsync(/dev/null) failing with EINVAL (Linux)";
#endif
  // /dev/null takes every write but cannot be synced: the journal must
  // refuse, naming the file, so no cell is ever counted as checkpointed
  // without a durable record.
  try {
    JournalWriter writer{"/dev/null"};
    FAIL() << "an unsyncable journal was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fsync failed for '/dev/null'"),
              std::string::npos)
        << error.what();
  }
}

TEST_F(JournalTest, ForeignFileIsRejectedAsNotAJournal) {
  path_ = journal_path("foreign");
  std::ofstream{path_} << "definitely not a journal\n1 2 3\n";
  EXPECT_THROW((void)read_journal(path_), util::ParseError);
}

TEST_F(JournalTest, WriterRoundTripsNastyTagsAndValues) {
  path_ = journal_path("escaping");
  CellResult cell;
  cell.tag = "tab\there %weird%\r\nnewline";
  cell.label = "label with\ttab";
  cell.metrics = run_scenario(small_scenario(core::SchedulerKind::Easy, 1), {});
  cell.values = {1.5, -0.25, 3e-17};
  {
    JournalWriter writer{path_};
    writer.record(7, cell);
  }
  const JournalContents contents = read_journal(path_);
  EXPECT_FALSE(contents.truncated);
  ASSERT_EQ(contents.cells.size(), 1u);
  const CellResult& back = contents.cells.at(7);
  EXPECT_EQ(back.tag, cell.tag);
  EXPECT_EQ(back.label, cell.label);
  EXPECT_EQ(back.values, cell.values);
  EXPECT_EQ(metrics::encode_metrics(back.metrics),
            metrics::encode_metrics(cell.metrics));
}

TEST_F(JournalTest, LaterDuplicateRecordsWin) {
  path_ = journal_path("duplicates");
  CellResult first;
  first.tag = "cell";
  first.values = {1.0};
  CellResult second = first;
  second.values = {2.0};
  {
    JournalWriter writer{path_};
    writer.record(0, first);
    writer.record(0, second);
  }
  const JournalContents contents = read_journal(path_);
  ASSERT_EQ(contents.cells.size(), 1u);
  EXPECT_EQ(contents.cells.at(0).values, std::vector<double>{2.0});
}

TEST_F(JournalTest, TornTailReadsAsTruncationNotCorruption) {
  path_ = journal_path("torn");
  CellResult cell;
  cell.tag = "cell";
  cell.metrics = run_scenario(small_scenario(core::SchedulerKind::Easy, 1), {});
  {
    JournalWriter writer{path_};
    writer.record(0, cell);
    writer.record(1, cell);
  }
  // A crash mid-write leaves one partial line: chop the file mid-record.
  std::string contents;
  {
    std::ifstream in{path_, std::ios::binary};
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t last_line = contents.rfind("\nC");
  ASSERT_NE(last_line, std::string::npos);
  {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out << contents.substr(0, last_line + 20);  // torn second record
  }
  const JournalContents read = read_journal(path_);
  EXPECT_TRUE(read.truncated);
  ASSERT_EQ(read.cells.size(), 1u);
  EXPECT_EQ(read.cells.count(0), 1u);
}

TEST_F(JournalTest, FullRunJournalReplaysEveryCellByteIdentically) {
  path_ = journal_path("full-replay");
  const Sweep sweep = small_grid();
  SweepOptions options;
  options.journal = path_;
  const SweepReport first = sweep.run(options);
  EXPECT_EQ(first.replayed, 0u);
  const SweepReport second = sweep.run(options);
  EXPECT_EQ(second.replayed, sweep.size());
  EXPECT_EQ(report_bytes(second), report_bytes(first));
  // And both match a journal-free run.
  EXPECT_EQ(report_bytes(sweep.run({})), report_bytes(first));
}

TEST_F(JournalTest, ResumeAfterACrashedRunIsByteIdenticalToAFreshOne) {
  path_ = journal_path("crash-resume");
  const Sweep sweep = small_grid();
  const std::string golden = report_bytes(sweep.run({}));

  // Run 1 "crashes": a permanent injected fault aborts the grid after
  // some cells already hit the journal.
  FaultPlan faults;
  faults.add("nobackfill/seed=1", {.fail_attempts = 100});
  SweepOptions crashed;
  crashed.threads = 3;
  crashed.chunk = 1;
  crashed.journal = path_;
  crashed.faults = &faults;
  EXPECT_THROW((void)sweep.run(crashed), SweepError);
  const JournalContents after_crash = read_journal(path_);
  EXPECT_GT(after_crash.cells.size(), 0u);
  EXPECT_LT(after_crash.cells.size(), sweep.size());
  // The failed cell was never journaled.
  for (const auto& [index, cell] : after_crash.cells)
    EXPECT_NE(cell.tag, "nobackfill/seed=1");

  // Run 2: the fault has healed; only the pending cells run live.
  SweepOptions resumed;
  resumed.threads = 3;
  resumed.chunk = 1;
  resumed.journal = path_;
  const SweepReport report = sweep.run(resumed);
  EXPECT_EQ(report.replayed, after_crash.cells.size());
  EXPECT_EQ(report_bytes(report), golden);
}

TEST_F(JournalTest, ResumeAfterATornTailRerunsTheTornCell) {
  path_ = journal_path("torn-resume");
  const Sweep sweep = small_grid();
  SweepOptions options;
  options.journal = path_;
  const std::string golden = report_bytes(sweep.run(options));
  // Tear the final record, as a kill -9 mid-append would.
  std::string contents;
  {
    std::ifstream in{path_, std::ios::binary};
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out << contents.substr(0, contents.size() - 10);
  }
  const SweepReport report = sweep.run(options);
  EXPECT_EQ(report.replayed, sweep.size() - 1);
  EXPECT_EQ(report_bytes(report), golden);
}

TEST_F(JournalTest, WrongJournalForTheGridIsRejected) {
  path_ = journal_path("wrong-grid");
  const Sweep big = small_grid();
  SweepOptions options;
  options.journal = path_;
  (void)big.run(options);

  // A different (smaller, differently tagged) grid must refuse to
  // resume from it rather than silently replaying foreign cells.
  Sweep other;
  (void)other.add(small_scenario(core::SchedulerKind::Easy, 1), "mine");
  EXPECT_THROW((void)other.run(options), std::invalid_argument);
}

TEST_F(JournalTest, JournaledValuesSurviveForCustomRunners) {
  path_ = journal_path("values");
  Sweep sweep;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    (void)sweep.add(small_scenario(core::SchedulerKind::Easy, seed),
                    "v" + std::to_string(seed),
                    [](const Scenario& s, const core::SimulationOptions&,
                       CellResult& result) {
                      result.values = {static_cast<double>(s.seed) * 0.5};
                    });
  SweepOptions options;
  options.journal = path_;
  (void)sweep.run(options);
  const SweepReport replayed = sweep.run(options);
  EXPECT_EQ(replayed.replayed, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(replayed.cells[i].values.size(), 1u);
    EXPECT_EQ(replayed.cells[i].values[0],
              static_cast<double>(i + 1) * 0.5);
  }
}

}  // namespace
}  // namespace bfsim::exp
