// The wire protocol: frame parsing (happy path and every rejection
// slug), reply builders' exact bytes, and the client-side decision
// parser. Reason slugs are pinned by string -- they are the quarantine
// counters' keys and part of the protocol surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "svc/protocol.hpp"
#include "workload/swf.hpp"

namespace bfsim::svc {
namespace {

std::string reason_of(const std::string& line) {
  try {
    (void)parse_request(line);
    return "";
  } catch (const ProtocolError& error) {
    return error.reason();
  }
}

TEST(Protocol, ParsesHelloWithDefaults) {
  const Request request = parse_request(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":128})");
  ASSERT_EQ(request.type, Request::Type::kHello);
  EXPECT_EQ(request.hello.kind, core::SchedulerKind::Easy);
  EXPECT_EQ(request.hello.config.procs, 128);
  EXPECT_EQ(request.hello.config.priority, core::PriorityPolicy::Fcfs);
  EXPECT_FALSE(request.hello.audit);
  EXPECT_EQ(request.hello.extras.reservation_depth, 4);
}

TEST(Protocol, ParsesHelloWithEveryKnob) {
  const Request request = parse_request(
      R"({"type":"hello","v":3,"scheduler":"kres","procs":430,)"
      R"("priority":"xfactor","audit":true,"reservation_depth":8,)"
      R"("xfactor_threshold":3.5,"selective_adaptive":true,)"
      R"("slack_factor":1.5})");
  EXPECT_EQ(request.hello.kind, core::SchedulerKind::KReservation);
  EXPECT_EQ(request.hello.config.procs, 430);
  EXPECT_EQ(request.hello.config.priority, core::PriorityPolicy::XFactor);
  EXPECT_TRUE(request.hello.audit);
  EXPECT_EQ(request.hello.extras.reservation_depth, 8);
  EXPECT_DOUBLE_EQ(request.hello.extras.xfactor_threshold, 3.5);
  EXPECT_TRUE(request.hello.extras.selective_adaptive);
  EXPECT_DOUBLE_EQ(request.hello.extras.slack_factor, 1.5);
}

TEST(Protocol, ParsesEventBatch) {
  const Request request = parse_request(
      R"({"type":"events","seq":3,"now":100,"events":[)"
      R"({"kind":"finish","id":1},)"
      R"({"kind":"submit","id":2,"submit":100,"estimate":60,"procs":4},)"
      R"({"kind":"cancel","id":0},)"
      R"({"kind":"wake"}]})");
  ASSERT_EQ(request.type, Request::Type::kEvents);
  EXPECT_EQ(request.batch.seq, 3u);
  EXPECT_EQ(request.batch.now, 100);
  ASSERT_EQ(request.batch.events.size(), 4u);
  EXPECT_EQ(request.batch.events[0].kind, EventKind::kFinish);
  EXPECT_EQ(request.batch.events[0].id, 1u);
  const Event& submit = request.batch.events[1];
  EXPECT_EQ(submit.kind, EventKind::kSubmit);
  EXPECT_EQ(submit.job.id, 2u);
  EXPECT_EQ(submit.job.submit, 100);
  EXPECT_EQ(submit.job.estimate, 60);
  // The true runtime never crosses the wire: the parsed job carries
  // the estimate in its place.
  EXPECT_EQ(submit.job.runtime, 60);
  EXPECT_EQ(submit.job.procs, 4);
  EXPECT_EQ(request.batch.events[3].kind, EventKind::kWake);
}

TEST(Protocol, RejectionSlugs) {
  // slug <- frame
  EXPECT_EQ(reason_of("not json at all"), "bad-json");
  EXPECT_EQ(reason_of("[1,2,3]"), "not-object");
  EXPECT_EQ(reason_of(R"({"no":"type"})"), "missing-field");
  EXPECT_EQ(reason_of(R"({"type":"teapot"})"), "unknown-type");
  EXPECT_EQ(reason_of(R"({"type":42})"), "bad-type");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":1,"scheduler":"easy","procs":4})"),
            "bad-version");
  EXPECT_EQ(
      reason_of(R"({"type":"hello","v":3,"scheduler":"magic","procs":4})"),
      "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy","procs":0})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":0,"now":1,"events":[]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":-5,"events":[]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":1,"events":{}})"),
            "bad-type");
  EXPECT_EQ(reason_of(
                R"({"type":"events","seq":1,"now":1,"events":[{"kind":"?"}]})"),
            "bad-value");
  EXPECT_EQ(
      reason_of(R"({"type":"events","seq":1.5,"now":1,"events":[]})"),
      "bad-type");
  // A frame over the byte cap is rejected before parsing.
  std::string huge = R"({"type":"events","seq":1,"now":1,"pad":")";
  huge += std::string(kMaxFrameBytes, 'x');
  huge += R"(","events":[]})";
  EXPECT_EQ(reason_of(huge), "oversized-frame");
}

TEST(Protocol, TimesBeyondTheHostilityBoundAreRejected) {
  // Mirrors the SWF reader's max_time cap: a reservation in year 30000
  // poisons every profile it touches even with saturating arithmetic.
  EXPECT_EQ(
      reason_of(
          R"({"type":"events","seq":1,"now":999999999999,"events":[]})"),
      "bad-value");
}

TEST(Protocol, ParsesBurstBufferFields) {
  // v2 extension: hello carries the machine's buffer capacity, submit
  // events carry the per-job demand. Both default to zero when absent.
  const Request hello = parse_request(
      R"({"type":"hello","v":3,"scheduler":"plan","procs":128,)"
      R"("burst_buffer":1024})");
  EXPECT_EQ(hello.hello.kind, core::SchedulerKind::Plan);
  EXPECT_EQ(hello.hello.config.burst_buffer, 1024);
  const Request events = parse_request(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":2,)"
      R"("bb":64}]})");
  ASSERT_EQ(events.batch.events.size(), 1u);
  EXPECT_EQ(events.batch.events[0].job.bb, 64);
}

TEST(Protocol, BurstBufferDefaultsToZeroWhenAbsent) {
  const Request hello = parse_request(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":128})");
  EXPECT_EQ(hello.hello.config.burst_buffer, 0);
  const Request events = parse_request(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":2}]})");
  EXPECT_EQ(events.batch.events[0].job.bb, 0);
}

TEST(Protocol, HostileBurstBufferFieldsAreRejected) {
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":-1})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":4294967296})"),
            "bad-value");  // > INT_MAX: would truncate
  EXPECT_EQ(reason_of(R"({"type":"hello","v":3,"scheduler":"easy",)"
                      R"("procs":4,"burst_buffer":"lots"})"),
            "bad-type");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":0,"events":[)"
                      R"({"kind":"submit","id":0,"submit":0,"estimate":1,)"
                      R"("procs":1,"bb":-64}]})"),
            "bad-value");
  EXPECT_EQ(reason_of(R"({"type":"events","seq":1,"now":0,"events":[)"
                      R"({"kind":"submit","id":0,"submit":0,"estimate":1,)"
                      R"("procs":1,"bb":1.5}]})"),
            "bad-type");
}

TEST(Protocol, ReplyBuildersAreByteStable) {
  EXPECT_EQ(welcome_reply("easy-fcfs", 7),
            R"({"type":"welcome","v":3,"scheduler":"easy-fcfs",)"
            R"("resumed_seq":7})");
  core::CycleDecision decision;
  std::vector<workload::JobId> ids{4, 9};
  decision.starts = ids;
  decision.next_wakeup = 500;
  decision.pass_ran = true;
  EXPECT_EQ(decision_reply(3, 100, decision),
            R"({"type":"decisions","seq":3,"now":100,"pass":true,)"
            R"("starts":[4,9],"next_wakeup":500})");
  decision.next_wakeup = sim::kNoTime;
  EXPECT_EQ(decision_reply(3, 100, decision),
            R"({"type":"decisions","seq":3,"now":100,"pass":true,)"
            R"("starts":[4,9],"next_wakeup":null})");
  ProtocolReport report;
  report.frames = 5;
  report.count_rejected("bad-json");
  report.count_rejected("bad-json");
  report.count_rejected("bad-seq");
  EXPECT_EQ(report_reply(report),
            R"({"type":"report","frames":5,"rejected":3,)"
            R"("reasons":{"bad-json":2,"bad-seq":1}})");
  EXPECT_EQ(error_reply("bad-seq", "detail here"),
            R"({"type":"error","reason":"bad-seq","detail":"detail here"})");
  EXPECT_EQ(bye_reply(), R"({"type":"bye"})");
}

TEST(Protocol, DecisionReplyRoundTrips) {
  core::CycleDecision sent;
  std::vector<workload::JobId> ids{1, 2, 3};
  sent.starts = ids;
  sent.next_wakeup = 777;
  sent.pass_ran = true;
  std::vector<workload::JobId> killed_ids{7};
  sent.killed = killed_ids;
  std::vector<workload::JobId> storage;
  std::vector<workload::JobId> kill_storage;
  const core::CycleDecision got = parse_decision_reply(
      decision_reply(9, 123, sent), 9, storage, kill_storage);
  EXPECT_TRUE(got.pass_ran);
  EXPECT_EQ(got.next_wakeup, 777);
  ASSERT_EQ(got.starts.size(), 3u);
  EXPECT_EQ(got.starts[1], 2u);
  ASSERT_EQ(got.killed.size(), 1u);
  EXPECT_EQ(got.killed[0], 7u);
}

TEST(Protocol, DecisionReplyRejectsSeqMismatchAndErrors) {
  std::vector<workload::JobId> storage;
  std::vector<workload::JobId> kill_storage;
  core::CycleDecision decision;
  const std::string line = decision_reply(4, 10, decision);
  EXPECT_THROW((void)parse_decision_reply(line, 5, storage, kill_storage),
               ProtocolError);
  try {
    (void)parse_decision_reply(error_reply("bad-seq", "boom"), 1, storage,
                               kill_storage);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.reason(), "server-error");
  }
}

// The Json-tree builders that events_request and decision_reply
// replaced, kept as the oracle for their bytes.

std::string tree_events_request(const EventBatch& batch) {
  Json events = Json::array();
  for (const Event& e : batch.events) {
    Json event = Json::object();
    switch (e.kind) {
      case EventKind::kSubmit:
        event.set("kind", Json::string("submit"));
        event.set("id", Json::integer(static_cast<std::int64_t>(e.job.id)));
        event.set("submit", Json::integer(e.job.submit));
        event.set("estimate", Json::integer(e.job.estimate));
        event.set("procs", Json::integer(e.job.procs));
        event.set("bb", Json::integer(e.job.bb));
        break;
      case EventKind::kFinish:
        event.set("kind", Json::string("finish"));
        event.set("id", Json::integer(static_cast<std::int64_t>(e.id)));
        break;
      case EventKind::kCancel:
        event.set("kind", Json::string("cancel"));
        event.set("id", Json::integer(static_cast<std::int64_t>(e.id)));
        break;
      case EventKind::kWake:
        event.set("kind", Json::string("wake"));
        break;
      case EventKind::kDown:
        event.set("kind", Json::string("down"));
        event.set("outage",
                  Json::integer(static_cast<std::int64_t>(e.outage.id)));
        event.set("repair", Json::integer(e.outage.repair_at));
        event.set("procs", Json::integer(e.outage.procs));
        event.set("bb", Json::integer(e.outage.bb));
        break;
      case EventKind::kRepair:
        event.set("kind", Json::string("up"));
        event.set("outage",
                  Json::integer(static_cast<std::int64_t>(e.outage.id)));
        break;
    }
    events.push_back(std::move(event));
  }
  Json frame = Json::object();
  frame.set("type", Json::string("events"));
  frame.set("seq", Json::integer(static_cast<std::int64_t>(batch.seq)));
  frame.set("now", Json::integer(batch.now));
  frame.set("events", std::move(events));
  return frame.dump();
}

std::string tree_decision_reply(std::uint64_t seq, core::Time now,
                                const core::CycleDecision& decision) {
  Json reply = Json::object();
  reply.set("type", Json::string("decisions"));
  reply.set("seq", Json::integer(static_cast<std::int64_t>(seq)));
  reply.set("now", Json::integer(now));
  reply.set("pass", Json::boolean(decision.pass_ran));
  Json starts = Json::array();
  for (const workload::JobId id : decision.starts)
    starts.push_back(Json::integer(static_cast<std::int64_t>(id)));
  reply.set("starts", std::move(starts));
  if (!decision.killed.empty()) {
    Json killed = Json::array();
    for (const workload::JobId id : decision.killed)
      killed.push_back(Json::integer(static_cast<std::int64_t>(id)));
    reply.set("killed", std::move(killed));
  }
  reply.set("next_wakeup", decision.next_wakeup == sim::kNoTime
                               ? Json::null()
                               : Json::integer(decision.next_wakeup));
  return reply.dump();
}

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxJobId =
    static_cast<std::int64_t>(workload::kInvalidJob) - 1;
constexpr std::int64_t kMaxOutageId =
    static_cast<std::int64_t>(core::kMaxTrackedOutages) - 1;

/// A bound as often as a value strictly inside the range.
std::int64_t pick(sim::Rng& rng, std::int64_t lo, std::int64_t hi) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return lo;
    case 1: return hi;
    default: return rng.uniform_int(lo, hi);
  }
}

/// A batch exactly as parse_request would produce it: submits carry the
/// estimate as runtime, downs carry no down_at, and each kind sets only
/// its own fields.
EventBatch random_batch(sim::Rng& rng) {
  const std::int64_t max_time = workload::kDefaultMaxSwfTime;
  EventBatch batch;
  batch.seq = static_cast<std::uint64_t>(pick(rng, 1, kMaxInt64));
  batch.now = pick(rng, 0, max_time);
  const auto count = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < count; ++i) {
    Event event;
    event.kind = static_cast<EventKind>(rng.uniform_int(0, 5));
    switch (event.kind) {
      case EventKind::kFinish:
      case EventKind::kCancel:
        event.id = static_cast<workload::JobId>(pick(rng, 0, kMaxJobId));
        break;
      case EventKind::kSubmit:
        event.id = static_cast<workload::JobId>(pick(rng, 0, kMaxJobId));
        event.job.id = event.id;
        event.job.submit = pick(rng, 0, max_time);
        event.job.estimate = pick(rng, 0, max_time);
        event.job.runtime = event.job.estimate;
        event.job.procs = static_cast<int>(pick(rng, 1, kMaxInt));
        event.job.bb =
            rng.bernoulli(0.5) ? 0 : static_cast<int>(pick(rng, 1, kMaxInt));
        break;
      case EventKind::kDown:
        event.outage.id = static_cast<sim::OutageId>(pick(rng, 0, kMaxOutageId));
        event.outage.repair_at = pick(rng, 0, max_time);
        event.outage.procs = static_cast<int>(pick(rng, 0, kMaxInt));
        event.outage.bb =
            rng.bernoulli(0.5) ? 0 : static_cast<int>(pick(rng, 1, kMaxInt));
        if (event.outage.procs == 0 && event.outage.bb == 0)
          event.outage.procs = 1;  // a down event must lose capacity
        break;
      case EventKind::kRepair:
        event.outage.id = static_cast<sim::OutageId>(pick(rng, 0, kMaxOutageId));
        break;
      case EventKind::kWake: break;
    }
    batch.events.push_back(event);
  }
  return batch;
}

void expect_same_event(const Event& got, const Event& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.job.id, want.job.id);
  EXPECT_EQ(got.job.submit, want.job.submit);
  EXPECT_EQ(got.job.runtime, want.job.runtime);
  EXPECT_EQ(got.job.estimate, want.job.estimate);
  EXPECT_EQ(got.job.procs, want.job.procs);
  EXPECT_EQ(got.job.bb, want.job.bb);
  EXPECT_EQ(got.job.cancel_at, want.job.cancel_at);
  EXPECT_EQ(got.outage, want.outage);
}

TEST(Protocol, EventsRequestMatchesTheJsonTreeAndRoundTrips) {
  sim::Rng rng{2024};
  int empty = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const EventBatch batch = random_batch(rng);
    empty += batch.events.empty() ? 1 : 0;
    const std::string line = events_request(batch);
    ASSERT_EQ(line, tree_events_request(batch)) << "trial " << trial;
    const Request request = parse_request(line);
    ASSERT_EQ(request.type, Request::Type::kEvents);
    EXPECT_EQ(request.batch.seq, batch.seq);
    EXPECT_EQ(request.batch.now, batch.now);
    ASSERT_EQ(request.batch.events.size(), batch.events.size());
    for (std::size_t i = 0; i < batch.events.size(); ++i)
      expect_same_event(request.batch.events[i], batch.events[i]);
  }
  EXPECT_GT(empty, 0);  // the empty batch is among the cases
}

TEST(Protocol, DecisionReplyMatchesTheJsonTreeAndRoundTrips) {
  sim::Rng rng{2025};
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<workload::JobId> starts(
        static_cast<std::size_t>(rng.uniform_int(0, 6)));
    for (workload::JobId& id : starts)
      id = static_cast<workload::JobId>(pick(rng, 0, kMaxJobId));
    std::vector<workload::JobId> killed;
    if (rng.bernoulli(0.5))
      killed.resize(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    for (workload::JobId& id : killed)
      id = static_cast<workload::JobId>(pick(rng, 0, kMaxJobId));
    core::CycleDecision decision;
    decision.starts = starts;
    decision.killed = killed;
    decision.pass_ran = rng.bernoulli(0.5);
    switch (rng.uniform_int(0, 3)) {
      case 0: decision.next_wakeup = sim::kNoTime; break;
      case 1: decision.next_wakeup = 0; break;
      case 2: decision.next_wakeup = kMaxInt64; break;
      default: decision.next_wakeup = rng.uniform_int(1, kMaxInt64);
    }
    const auto seq = static_cast<std::uint64_t>(pick(rng, 0, kMaxInt64));
    const core::Time now = pick(rng, 0, kMaxInt64);
    const std::string line = decision_reply(seq, now, decision);
    ASSERT_EQ(line, tree_decision_reply(seq, now, decision))
        << "trial " << trial;
    std::vector<workload::JobId> start_storage;
    std::vector<workload::JobId> kill_storage;
    const core::CycleDecision got =
        parse_decision_reply(line, seq, start_storage, kill_storage);
    EXPECT_EQ(got.pass_ran, decision.pass_ran);
    EXPECT_EQ(start_storage, starts);
    EXPECT_EQ(kill_storage, killed);
    EXPECT_EQ(got.next_wakeup, decision.next_wakeup);
  }
}

}  // namespace
}  // namespace bfsim::svc
