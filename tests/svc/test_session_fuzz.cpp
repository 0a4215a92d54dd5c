// Hostile-input fuzz for the service: a session pelted with mutated,
// truncated and garbage frames interleaved into a legitimate replay
// must (a) never crash, (b) answer every hostile frame with a
// structured error, and (c) produce a schedule byte-identical to an
// undisturbed run -- quarantine means the garbage leaves no trace.
// Deterministic by construction: all randomness flows from sim::Rng
// seeds, per the project's reproducibility contract.
#include <gtest/gtest.h>

#include <string>

#include "core/simulation.hpp"
#include "exp/scenario.hpp"
#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/session.hpp"

namespace bfsim::svc {
namespace {

/// A channel that harasses its Session with hostile mutations of each
/// outbound frame before delivering the real one. Every mutation is
/// built to be *rejectable* (truncations, garbage, bad seq, unknown
/// type, a finish dropped past its job's estimated end) so the
/// legitimate conversation must come through untouched; duplicates of
/// the previous accepted frame check retransmit dedup.
class HostileChannel final : public LineChannel {
 public:
  HostileChannel(Session& session, std::uint64_t seed)
      : session_(&session), rng_(seed) {}

  [[nodiscard]] std::uint64_t hostile_frames() const { return hostile_; }

  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    const int attacks = static_cast<int>(rng_.uniform_int(0, 2));
    for (int i = 0; i < attacks; ++i) attack(line);
    const std::string reply = session_->handle_line(line);
    if (reply.find("\"type\":\"decisions\"") != std::string::npos) {
      last_accepted_ = line;
      last_reply_ = reply;
    }
    return reply;
  }

 private:
  void attack(const std::string& line) {
    switch (rng_.uniform_int(0, 7)) {
      case 0: {  // truncation: a prefix of a JSON object never parses
        const auto cut = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
        expect_rejected(line.substr(0, cut));
        break;
      }
      case 1: {  // pure garbage bytes
        std::string garbage;
        const int length = static_cast<int>(rng_.uniform_int(1, 64));
        for (int i = 0; i < length; ++i)
          garbage += static_cast<char>(rng_.uniform_int(1, 255));
        expect_rejected(garbage);
        break;
      }
      case 2:  // structurally valid, semantically alien
        expect_rejected(R"({"type":"discombobulate","seq":1})");
        break;
      case 3: {  // far-future sequence number
        const std::string needle = "\"seq\":";
        const std::size_t at = line.find(needle);
        if (at == std::string::npos) break;  // hello/stats/bye frame
        std::string skewed = line;
        skewed.insert(at + needle.size(), "9999");
        expect_rejected(skewed);
        break;
      }
      case 4: {  // duplicate of the last accepted frame: dedup, not error
        if (last_accepted_.empty()) break;
        ++hostile_;
        const std::string reply = session_->handle_line(last_accepted_);
        EXPECT_EQ(reply, last_reply_)
            << "retransmit must replay the cached reply";
        break;
      }
      case 5:  // an events frame from a parallel universe (bad lifecycle)
        expect_rejected(
            R"({"type":"events","seq":999999,"now":0,)"
            R"("events":[{"kind":"finish","id":12345}]})");
        break;
      case 6:  // v2 burst-buffer hostility: negative and over-capacity
        if (rng_.uniform_int(0, 1) == 0) {
          expect_rejected(
              R"({"type":"events","seq":999998,"now":0,)"
              R"("events":[{"kind":"submit","id":54321,"submit":0,)"
              R"("estimate":1,"procs":1,"bb":-5}]})");
        } else {
          expect_rejected(
              R"({"type":"events","seq":999998,"now":0,)"
              R"("events":[{"kind":"submit","id":54321,"submit":0,)"
              R"("estimate":1,"procs":1,"bb":2000000000}]})");
        }
        break;
      case 7: {  // a finish dropped while the clock runs past its end
        if (line.find(R"("kind":"finish")") == std::string::npos) break;
        // The job finishing in this frame still runs; no estimate comes
        // near a thousand days, so the delayed instant is past its end
        // (and still inside the wire's ten-year time cap).
        constexpr core::Time kDelay = 1000 * sim::kDay;
        const Json frame = parse_json(line);
        expect_rejected(R"({"type":"events","seq":)" +
                            std::to_string(frame.find("seq")->as_int()) +
                            R"(,"now":)" +
                            std::to_string(frame.find("now")->as_int() +
                                           kDelay) +
                            R"(,"events":[]})",
                        "overdue-finish");
        break;
      }
    }
  }

  void expect_rejected(const std::string& frame,
                       const char* reason = nullptr) {
    ++hostile_;
    std::string reply;
    EXPECT_NO_THROW(reply = session_->handle_line(frame))
        << "hostile frame crashed the session";
    // Structured error, parseable, with a reason slug.
    const Json parsed = parse_json(reply);
    ASSERT_NE(parsed.find("type"), nullptr);
    EXPECT_EQ(parsed.find("type")->as_string(), "error") << frame;
    ASSERT_NE(parsed.find("reason"), nullptr);
    EXPECT_FALSE(parsed.find("reason")->as_string().empty());
    if (reason != nullptr) {
      EXPECT_EQ(parsed.find("reason")->as_string(), reason) << frame;
    }
  }

  Session* session_;
  sim::Rng rng_;
  std::string last_accepted_;
  std::string last_reply_;
  std::uint64_t hostile_ = 0;
};

workload::Trace fuzz_trace(std::uint64_t seed) {
  exp::Scenario scenario;
  scenario.trace = exp::TraceKind::Sdsc;
  scenario.jobs = 120;
  scenario.load = exp::kHighLoad;
  scenario.seed = seed;
  return exp::build_workload(scenario);
}

TEST(SessionFuzz, HostileFramesLeaveTheScheduleUntouched) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const workload::Trace trace = fuzz_trace(seed);
    HelloRequest hello;
    hello.kind = core::SchedulerKind::Easy;
    hello.config = core::SchedulerConfig{
        exp::machine_procs(exp::TraceKind::Sdsc), core::PriorityPolicy::Fcfs};

    Session session;
    HostileChannel channel{session, seed * 0x9e3779b9ULL + 1};
    const core::SimulationResult served = served_run(trace, channel, hello);
    EXPECT_GT(channel.hostile_frames(), 0u);
    // Every hostile frame (minus accepted duplicates) is quarantined
    // with a reason; the counters never undercount.
    EXPECT_GT(session.report().rejected, 0u);
    EXPECT_LE(session.report().rejected, channel.hostile_frames());

    const core::SimulationResult local = core::run_simulation(
        trace, hello.kind, hello.config, hello.extras, {.validate = true});
    ASSERT_EQ(served.outcomes.size(), local.outcomes.size());
    for (std::size_t i = 0; i < served.outcomes.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(served.outcomes[i].start, local.outcomes[i].start);
      EXPECT_EQ(served.outcomes[i].end, local.outcomes[i].end);
      EXPECT_EQ(served.outcomes[i].killed, local.outcomes[i].killed);
      EXPECT_EQ(served.outcomes[i].cancelled, local.outcomes[i].cancelled);
    }
    EXPECT_EQ(served.makespan, local.makespan);
    EXPECT_EQ(served.events, local.events);
    EXPECT_EQ(served.max_queue, local.max_queue);
  }
}

TEST(SessionFuzz, PureGarbageStormNeverCrashes) {
  // No legitimate conversation at all: thousands of random byte
  // strings, every reply a structured error, the session still
  // perfectly willing to do real work afterwards.
  Session session;
  sim::Rng rng{42};
  for (int i = 0; i < 5000; ++i) {
    std::string garbage;
    const int length = static_cast<int>(rng.uniform_int(0, 200));
    for (int j = 0; j < length; ++j)
      garbage += static_cast<char>(rng.uniform_int(1, 255));
    std::string reply;
    ASSERT_NO_THROW(reply = session.handle_line(garbage));
    const Json parsed = parse_json(reply);
    EXPECT_EQ(parsed.find("type")->as_string(), "error");
  }
  EXPECT_EQ(session.report().rejected, 5000u);
  const std::string welcome = session.handle_line(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  EXPECT_NE(welcome.find("\"type\":\"welcome\""), std::string::npos);
}

TEST(SessionFuzz, MutatedJsonDocumentsNeverCrashTheParser) {
  // Take one well-formed frame and flip/insert/delete bytes at random;
  // parse_json must either succeed or throw JsonError -- nothing else.
  const std::string base =
      R"({"type":"events","seq":3,"now":100,"events":[)"
      R"({"kind":"submit","id":2,"submit":100,"estimate":60,"procs":4},)"
      R"({"kind":"wake"}]})";
  sim::Rng rng{7};
  for (int i = 0; i < 20000; ++i) {
    std::string mutated = base;
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          mutated[at] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          mutated.insert(at, 1,
                         static_cast<char>(rng.uniform_int(0, 255)));
          break;
        case 2:
          mutated.erase(at, 1);
          break;
      }
    }
    try {
      (void)parse_json(mutated);
    } catch (const JsonError&) {
      // expected for most mutants
    }
  }
}

}  // namespace
}  // namespace bfsim::svc
