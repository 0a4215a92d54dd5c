// Crash-safe state: the event log's read/write round trip, torn-tail
// semantics, and -- the point of it all -- a daemon killed mid-session
// coming back with the same future schedule. The crash drills run a
// real replay through RemoteDecisionCore over a channel that kills and
// resurrects its Session at chosen frames, exercising the client's
// retransmit path against both failure orders (died before the frame
// was applied / died after applying but before the reply arrived).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "svc/client.hpp"
#include "svc/eventlog.hpp"
#include "svc/session.hpp"

namespace bfsim::svc {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "bfsim-eventlog-" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(EventLog, RoundTripsHelloAndFrames) {
  const std::string path = temp_path("roundtrip");
  {
    EventLogWriter writer{path};
    writer.record_hello(R"({"type":"hello","v":3})");
    writer.record_batch(1, R"({"type":"events","seq":1})");
    writer.record_batch(2, R"({"type":"events","seq":2})");
  }
  const EventLogContents contents = read_event_log(path);
  EXPECT_EQ(contents.hello, R"({"type":"hello","v":3})");
  ASSERT_EQ(contents.frames.size(), 2u);
  EXPECT_EQ(contents.frames[0].first, 1u);
  EXPECT_EQ(contents.frames[0].second, R"({"type":"events","seq":1})");
  EXPECT_EQ(contents.frames[1].first, 2u);
  EXPECT_FALSE(contents.truncated);
  std::remove(path.c_str());
}

TEST(EventLog, FailedSyncThrowsInsteadOfAcking) {
#ifndef __linux__
  GTEST_SKIP() << "relies on fsync(/dev/null) failing with EINVAL (Linux)";
#endif
  // /dev/null takes every write but cannot be synced, so the header line
  // is never durable: the writer must refuse, naming the file, rather
  // than go on to ack frames it cannot sync.
  try {
    EventLogWriter writer{"/dev/null"};
    FAIL() << "an unsyncable event log was accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("fsync failed for '/dev/null'"),
              std::string::npos)
        << error.what();
  }
}

TEST(EventLog, MissingFileReadsAsEmpty) {
  const EventLogContents contents =
      read_event_log(temp_path("never-written"));
  EXPECT_TRUE(contents.hello.empty());
  EXPECT_TRUE(contents.frames.empty());
  EXPECT_FALSE(contents.truncated);
}

TEST(EventLog, TornTailReadsAsNeverAccepted) {
  const std::string path = temp_path("torn");
  {
    EventLogWriter writer{path};
    writer.record_hello(R"({"type":"hello"})");
    writer.record_batch(1, R"({"type":"events","seq":1})");
  }
  // Simulate a crash mid-write: a partial record with no checksum.
  {
    std::ofstream out{path, std::ios::app | std::ios::binary};
    out << "E\t2\t{\"type\":\"ev";
  }
  const EventLogContents contents = read_event_log(path);
  ASSERT_EQ(contents.frames.size(), 1u);
  EXPECT_EQ(contents.frames[0].first, 1u);
  EXPECT_TRUE(contents.truncated);
  // Appending after recovery continues the log cleanly... except the
  // torn bytes are still there; the writer appends after them and the
  // reader stops at the tear, which is why the session re-logs nothing
  // and the client retransmits instead.
  std::remove(path.c_str());
}

TEST(EventLog, RejectsAForeignFile) {
  const std::string path = temp_path("foreign");
  {
    std::ofstream out{path};
    out << "definitely not an event log\n";
  }
  EXPECT_THROW((void)read_event_log(path), std::exception);
  std::remove(path.c_str());
}

TEST(EventLog, SessionRestoreRebuildsTheScheduler) {
  const std::string path = temp_path("restore");
  const char* hello = R"({"type":"hello","v":3,"scheduler":"easy","procs":8})";
  std::string reply2;
  {
    Session first{SessionOptions{path}};
    (void)first.handle_line(hello);
    (void)first.handle_line(
        R"({"type":"events","seq":1,"now":0,"events":[)"
        R"({"kind":"submit","id":0,"submit":0,"estimate":100,"procs":8}]})");
    reply2 = first.handle_line(
        R"({"type":"events","seq":2,"now":10,"events":[)"
        R"({"kind":"submit","id":1,"submit":10,"estimate":50,"procs":4}]})");
    // Session dies here (destructor = crash for state purposes; the
    // log was fsync'd per frame).
  }
  Session second{SessionOptions{path}};
  const std::string welcome = second.handle_line(hello);
  const Json parsed = parse_json(welcome);
  ASSERT_EQ(parsed.find("type")->as_string(), "welcome");
  EXPECT_EQ(parsed.find("resumed_seq")->as_int(), 2);
  // The rebuilt core observed both submits and holds job 1 queued
  // behind the machine-filling job 0 -- the same live state.
  ASSERT_NE(second.decision_core(), nullptr);
  EXPECT_EQ(second.decision_core()->stats().events, 2u);
  EXPECT_EQ(second.decision_core()->queued(), 1u);
  EXPECT_EQ(second.decision_core()->running(), 1u);
  // Retransmit of the last frame replays the cached... no: the cache
  // died with the process. The frame is already in the log, so the
  // session must regenerate the identical reply from the rebuilt core.
  const std::string again = second.handle_line(
      R"({"type":"events","seq":2,"now":10,"events":[)"
      R"({"kind":"submit","id":1,"submit":10,"estimate":50,"procs":4}]})");
  EXPECT_EQ(again, reply2);
  // And a config mismatch on resume is refused outright.
  Session third{SessionOptions{path}};
  const std::string refused = third.handle_line(
      R"({"type":"hello","v":3,"scheduler":"fcfs","procs":8})");
  EXPECT_EQ(parse_json(refused).find("reason")->as_string(),
            "hello-mismatch");
  std::remove(path.c_str());
}

/// A LineChannel that owns a crash-safe Session and murders it at
/// chosen frame numbers -- before or after the frame is delivered --
/// then rebuilds it from the state file, exactly like a daemon being
/// kill -9'd and relaunched with the same --state.
class CrashyChannel final : public LineChannel {
 public:
  explicit CrashyChannel(std::string state_path)
      : state_path_(std::move(state_path)) {
    restart();
  }

  void crash_before_frame(std::uint64_t n) { crash_before_ = n; }
  void crash_after_frame(std::uint64_t n) { crash_after_ = n; }
  [[nodiscard]] int crashes() const { return crashes_; }
  [[nodiscard]] Session& session() { return *session_; }

  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    ++calls_;
    if (calls_ == crash_before_) {
      restart();
      ++crashes_;
      throw ChannelError("daemon died before the frame arrived");
    }
    std::string reply = session_->handle_line(line);
    if (calls_ == crash_after_) {
      restart();
      ++crashes_;
      throw ChannelError("daemon died before the reply left");
    }
    return reply;
  }

 private:
  void restart() {
    session_ = std::make_unique<Session>(SessionOptions{state_path_});
  }

  std::string state_path_;
  std::unique_ptr<Session> session_;
  std::uint64_t calls_ = 0;
  std::uint64_t crash_before_ = 0;
  std::uint64_t crash_after_ = 0;
  int crashes_ = 0;
};

workload::Trace crash_trace() {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = 80;
  scenario.load = exp::kHighLoad;
  scenario.seed = 11;
  return exp::build_workload(scenario);
}

void expect_same_schedule(const core::SimulationResult& a,
                          const core::SimulationResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a.outcomes[i].start, b.outcomes[i].start);
    EXPECT_EQ(a.outcomes[i].end, b.outcomes[i].end);
    EXPECT_EQ(a.outcomes[i].killed, b.outcomes[i].killed);
    EXPECT_EQ(a.outcomes[i].cancelled, b.outcomes[i].cancelled);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events, b.events);
}

TEST(EventLog, ReplaySurvivesACrashAfterApply) {
  // The daemon applies + logs frame 20, dies before the reply leaves.
  // The relaunched daemon replays its log, the client re-handshakes
  // and retransmits; the daemon recognizes the seq and serves the
  // reply from the rebuilt core. Schedule: unperturbed.
  const std::string path = temp_path("crash-after");
  const workload::Trace trace = crash_trace();
  HelloRequest hello;
  hello.kind = core::SchedulerKind::Easy;
  hello.config = core::SchedulerConfig{
      exp::machine_procs(exp::TraceKind::Sdsc), core::PriorityPolicy::Fcfs};

  CrashyChannel channel{path};
  channel.crash_after_frame(20);
  const core::SimulationResult served = served_run(trace, channel, hello);
  EXPECT_EQ(channel.crashes(), 1);

  const core::SimulationResult local = core::run_simulation(
      trace, hello.kind, hello.config, hello.extras, {.validate = true});
  expect_same_schedule(served, local);
  std::remove(path.c_str());
}

TEST(EventLog, ReplaySurvivesACrashBeforeApply) {
  // The daemon dies before frame 15 ever reaches it: nothing logged,
  // the retransmitted frame applies fresh after resume.
  const std::string path = temp_path("crash-before");
  const workload::Trace trace = crash_trace();
  HelloRequest hello;
  hello.kind = core::SchedulerKind::Conservative;
  hello.config = core::SchedulerConfig{
      exp::machine_procs(exp::TraceKind::Sdsc), core::PriorityPolicy::Sjf};

  CrashyChannel channel{path};
  channel.crash_before_frame(15);
  const core::SimulationResult served = served_run(trace, channel, hello);
  EXPECT_EQ(channel.crashes(), 1);

  const core::SimulationResult local = core::run_simulation(
      trace, hello.kind, hello.config, hello.extras, {.validate = true});
  expect_same_schedule(served, local);
  std::remove(path.c_str());
}

TEST(EventLog, StatelessDaemonCannotResume) {
  // No --state: after a crash the reborn session has an empty history,
  // so its welcome reports resumed_seq 0 while the client has acked
  // frames -- the client must refuse ("bad-resume") rather than
  // silently continue against a scheduler that forgot everything.
  const workload::Trace trace = crash_trace();
  HelloRequest hello;
  hello.kind = core::SchedulerKind::Easy;
  hello.config = core::SchedulerConfig{
      exp::machine_procs(exp::TraceKind::Sdsc), core::PriorityPolicy::Fcfs};

  CrashyChannel channel{""};  // empty state path = no event log
  channel.crash_after_frame(20);
  try {
    (void)served_run(trace, channel, hello);
    FAIL() << "expected ProtocolError bad-resume";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.reason(), "bad-resume");
  }
}

TEST(EventLog, LogIsDurableLineByLine) {
  // Every accepted frame is on disk (with its checksum) before the
  // reply exists -- verified by reading the raw file between frames.
  const std::string path = temp_path("durable");
  Session session{SessionOptions{path}};
  (void)session.handle_line(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":4})");
  const std::string before = read_file(path);
  EXPECT_NE(before.find("bfsim-eventlog v1"), std::string::npos);
  EXPECT_NE(before.find("H\t"), std::string::npos);
  (void)session.handle_line(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":9,"procs":1}]})");
  const std::string after = read_file(path);
  EXPECT_NE(after.find("E\t1\t"), std::string::npos);
  // Rejected frames are never logged.
  (void)session.handle_line("garbage");
  (void)session.handle_line(
      R"({"type":"events","seq":9,"now":0,"events":[]})");
  EXPECT_EQ(read_file(path), after);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfsim::svc
