// The protocol state machine: handshake discipline, sequence-number
// handling (contiguity, retransmit dedup), whole-batch atomicity, and
// the per-reason quarantine counters. Everything here drives a bare
// Session -- no sockets, no threads -- because the session IS the
// daemon's semantics.
#include <gtest/gtest.h>

#include <string>

#include "svc/json.hpp"
#include "svc/session.hpp"

namespace bfsim::svc {
namespace {

std::string reply_type(const std::string& reply) {
  const Json parsed = parse_json(reply);
  const Json* type = parsed.find("type");
  return type != nullptr && type->is_string() ? type->as_string() : "";
}

std::string error_reason(const std::string& reply) {
  const Json parsed = parse_json(reply);
  if (reply_type(reply) != "error") return "";
  return parsed.find("reason")->as_string();
}

constexpr const char* kHello =
    R"({"type":"hello","v":3,"scheduler":"easy","procs":8})";

std::string submit_batch(std::uint64_t seq, core::Time now,
                         workload::JobId id, core::Time estimate, int procs) {
  return R"({"type":"events","seq":)" + std::to_string(seq) +
         R"(,"now":)" + std::to_string(now) +
         R"(,"events":[{"kind":"submit","id":)" + std::to_string(id) +
         R"(,"submit":)" + std::to_string(now) + R"(,"estimate":)" +
         std::to_string(estimate) + R"(,"procs":)" + std::to_string(procs) +
         "}]}";
}

TEST(Session, HandshakeThenDecisions) {
  Session session;
  const std::string welcome = session.handle_line(kHello);
  EXPECT_EQ(reply_type(welcome), "welcome");
  const Json parsed = parse_json(welcome);
  EXPECT_EQ(parsed.find("scheduler")->as_string(), "easy-fcfs");
  EXPECT_EQ(parsed.find("resumed_seq")->as_int(), 0);

  const std::string decisions =
      session.handle_line(submit_batch(1, 0, 0, 100, 4));
  EXPECT_EQ(reply_type(decisions), "decisions");
  const Json decision = parse_json(decisions);
  ASSERT_EQ(decision.find("starts")->as_array().size(), 1u);
  EXPECT_EQ(decision.find("starts")->as_array()[0].as_int(), 0);
  EXPECT_TRUE(decision.find("pass")->as_bool());
  EXPECT_EQ(session.last_seq(), 1u);
}

TEST(Session, EventsBeforeHelloAreRejected) {
  Session session;
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(1, 0, 0, 10, 1))),
            "no-hello");
  EXPECT_EQ(error_reason(session.handle_line(R"({"type":"stats"})")),
            "no-hello");
  // report works pre-handshake: it is how a client inspects rejects.
  EXPECT_EQ(reply_type(session.handle_line(R"({"type":"report"})")),
            "report");
}

TEST(Session, RepeatedHelloIsIdempotentForTheSameConfig) {
  Session session;
  EXPECT_EQ(reply_type(session.handle_line(kHello)), "welcome");
  (void)session.handle_line(submit_batch(1, 0, 0, 100, 4));
  // Reconnect: same config re-handshakes into the live session and
  // learns the resume point.
  const std::string again = session.handle_line(kHello);
  EXPECT_EQ(reply_type(again), "welcome");
  EXPECT_EQ(parse_json(again).find("resumed_seq")->as_int(), 1);
  // A different config is a different session: refused.
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"hello","v":3,"scheduler":"fcfs","procs":8})")),
            "hello-mismatch");
}

TEST(Session, BurstBufferCapacityIsPartOfTheSessionIdentity) {
  // Reconnecting with a different buffer capacity is a different
  // machine: refused, exactly like a procs mismatch.
  Session session;
  (void)session.handle_line(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":8,)"
      R"("burst_buffer":100})");
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"hello","v":3,"scheduler":"easy","procs":8,)"
                R"("burst_buffer":200})")),
            "hello-mismatch");
}

TEST(Session, OverCapacityBurstBufferDemandsAreBadEvents) {
  Session session;
  (void)session.handle_line(
      R"({"type":"hello","v":3,"scheduler":"easy","procs":8,)"
      R"("burst_buffer":100})");
  // Fits both axes: accepted.
  EXPECT_EQ(reply_type(session.handle_line(
                R"({"type":"events","seq":1,"now":0,"events":[)"
                R"({"kind":"submit","id":0,"submit":0,"estimate":10,)"
                R"("procs":4,"bb":100}]})")),
            "decisions");
  // Demands more buffer than the machine owns: quarantined, atomic.
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":1,"events":[)"
                R"({"kind":"submit","id":1,"submit":1,"estimate":10,)"
                R"("procs":4,"bb":101}]})")),
            "bad-event");
  EXPECT_EQ(session.last_seq(), 1u);
}

TEST(Session, AnyBufferDemandIsBadOnABufferlessMachine) {
  Session session;
  (void)session.handle_line(kHello);  // no burst_buffer: capacity 0
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":1,"now":0,"events":[)"
                R"({"kind":"submit","id":0,"submit":0,"estimate":10,)"
                R"("procs":4,"bb":1}]})")),
            "bad-event");
}

TEST(Session, SequenceNumbersMustBeContiguous) {
  Session session;
  (void)session.handle_line(kHello);
  (void)session.handle_line(submit_batch(1, 0, 0, 100, 4));
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(3, 5, 1, 100, 1))),
            "bad-seq");
  EXPECT_EQ(session.last_seq(), 1u);
}

TEST(Session, RetransmitReplaysTheCachedReplyWithoutReapplying) {
  Session session;
  (void)session.handle_line(kHello);
  const std::string frame = submit_batch(1, 0, 0, 100, 4);
  const std::string first = session.handle_line(frame);
  const std::string second = session.handle_line(frame);
  EXPECT_EQ(first, second);
  // The duplicate was NOT applied: the core saw exactly one submit.
  ASSERT_NE(session.decision_core(), nullptr);
  EXPECT_EQ(session.decision_core()->stats().events, 1u);
}

TEST(Session, TimeMustNotRunBackwards) {
  Session session;
  (void)session.handle_line(kHello);
  (void)session.handle_line(submit_batch(1, 100, 0, 50, 1));
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(2, 99, 1, 50, 1))),
            "time-regression");
  // Equal timestamps are fine (two frames can close the same instant).
  EXPECT_EQ(reply_type(session.handle_line(submit_batch(2, 100, 1, 50, 1))),
            "decisions");
}

TEST(Session, AFrameAfterAMissedEstimatedEndIsRejectedWhole) {
  // 4 procs under SJF: job 0 (4 wide, estimated to end at 10) starts at
  // 0, and the client's next frame comes at 15 without its finish. The
  // core refuses that instant; the session must reject the frame before
  // applying any of it, stay serviceable, and never call it a desync.
  Session session;
  ASSERT_EQ(reply_type(session.handle_line(
                R"({"type":"hello","v":3,"scheduler":"conservative",)"
                R"("procs":4,"priority":"sjf","audit":true})")),
            "welcome");
  ASSERT_EQ(reply_type(session.handle_line(submit_batch(1, 0, 0, 10, 4))),
            "decisions");
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(2, 15, 1, 10, 4))),
            "overdue-finish");
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":15,"events":[]})")),
            "overdue-finish");
  // At the estimated end itself the frame must carry the finish: its
  // cycle would otherwise start job 1 on processors still busy.
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(2, 10, 1, 10, 4))),
            "overdue-finish");
  EXPECT_EQ(session.report().reasons.count("internal-desync"), 0u);
  EXPECT_EQ(session.report().reasons.at("overdue-finish"), 3u);
  EXPECT_EQ(session.last_seq(), 1u);
  ASSERT_NE(session.decision_core(), nullptr);
  EXPECT_EQ(session.decision_core()->phase(1), core::JobPhase::kUnseen);
  // The repaired stream goes through: the finish at its estimated end,
  // then the arrival, which starts on the freed machine.
  EXPECT_EQ(reply_type(session.handle_line(
                R"({"type":"events","seq":2,"now":10,"events":[)"
                R"({"kind":"finish","id":0}]})")),
            "decisions");
  const std::string decisions =
      session.handle_line(submit_batch(3, 15, 1, 10, 4));
  ASSERT_EQ(reply_type(decisions), "decisions");
  const Json starts = *parse_json(decisions).find("starts");
  ASSERT_EQ(starts.as_array().size(), 1u);
  EXPECT_EQ(starts.as_array()[0].as_int(), 1);
}

TEST(Session, AFrameAfterAMissedRepairIsRejectedWhole) {
  // An outage downs all 4 processors from 0 to 10 while a 4-proc job
  // waits; the client's next frame comes at or after 10 without the
  // repair. Conservative plans the capacity back at 10, so that frame
  // would start the job on processors the machine still counts down.
  Session session;
  ASSERT_EQ(reply_type(session.handle_line(
                R"({"type":"hello","v":3,"scheduler":"conservative",)"
                R"("procs":4,"audit":true})")),
            "welcome");
  ASSERT_EQ(reply_type(session.handle_line(
                R"({"type":"events","seq":1,"now":0,"events":[)"
                R"({"kind":"down","outage":0,"repair":10,"procs":4},)"
                R"({"kind":"submit","id":0,"submit":0,"estimate":10,)"
                R"("procs":4}]})")),
            "decisions");
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":12,"events":[)"
                R"({"kind":"wake"}]})")),
            "overdue-repair");
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":10,"events":[)"
                R"({"kind":"wake"}]})")),
            "overdue-repair");
  EXPECT_EQ(session.report().reasons.count("internal-desync"), 0u);
  EXPECT_EQ(session.report().reasons.at("overdue-repair"), 2u);
  EXPECT_EQ(session.last_seq(), 1u);
  const std::string decisions = session.handle_line(
      R"({"type":"events","seq":2,"now":10,"events":[)"
      R"({"kind":"up","outage":0}]})");
  ASSERT_EQ(reply_type(decisions), "decisions");
  const Json starts = *parse_json(decisions).find("starts");
  ASSERT_EQ(starts.as_array().size(), 1u);
  EXPECT_EQ(starts.as_array()[0].as_int(), 0);
}

TEST(Session, EventsWithinABatchMustBeOrdered) {
  Session session;
  (void)session.handle_line(kHello);
  const std::string out_of_order =
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":1},)"
      R"({"kind":"finish","id":0}]})";
  EXPECT_EQ(error_reason(session.handle_line(out_of_order)), "out-of-order");
}

TEST(Session, RejectedBatchesAreAtomic) {
  Session session;
  (void)session.handle_line(kHello);
  // Second event is hostile (submit wider than the machine); the first
  // event must NOT have been applied.
  const std::string poison =
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":1},)"
      R"({"kind":"submit","id":1,"submit":0,"estimate":10,"procs":999}]})";
  EXPECT_EQ(error_reason(session.handle_line(poison)), "bad-event");
  EXPECT_EQ(session.last_seq(), 0u);
  EXPECT_EQ(session.decision_core()->stats().events, 0u);
  // The repaired batch reuses the same seq and succeeds; job 0 is not
  // a duplicate because the poisoned frame never touched the core.
  const std::string repaired =
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":10,"procs":1},)"
      R"({"kind":"submit","id":1,"submit":0,"estimate":10,"procs":8}]})";
  EXPECT_EQ(reply_type(session.handle_line(repaired)), "decisions");
  EXPECT_EQ(session.decision_core()->stats().events, 2u);
}

TEST(Session, LifecycleViolationsAreCaughtBeforeApplication) {
  Session session;
  (void)session.handle_line(kHello);
  (void)session.handle_line(submit_batch(1, 0, 0, 100, 4));  // job 0 starts
  // Finish of a job that is not running.
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":1,)"
                R"("events":[{"kind":"finish","id":7}]})")),
            "bad-event");
  // Cancel of a job never submitted.
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":1,)"
                R"("events":[{"kind":"cancel","id":7}]})")),
            "bad-event");
  // Duplicate submit.
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(2, 1, 0, 10, 1))),
            "bad-event");
  // Submit whose embedded time disagrees with the batch instant.
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":5,"events":[)"
                R"({"kind":"submit","id":1,"submit":4,"estimate":10,)"
                R"("procs":1}]})")),
            "bad-event");
  // Absurd job id (phase-table allocation attack).
  EXPECT_EQ(error_reason(session.handle_line(
                R"({"type":"events","seq":2,"now":5,"events":[)"
                R"({"kind":"submit","id":999999999,"submit":5,)"
                R"("estimate":10,"procs":1}]})")),
            "bad-event");
  // The session survives it all and still serves.
  const std::string finish =
      R"({"type":"events","seq":2,"now":100,)"
      R"("events":[{"kind":"finish","id":0}]})";
  EXPECT_EQ(reply_type(session.handle_line(finish)), "decisions");
}

TEST(Session, QuarantineCountersMirrorEveryRejection) {
  Session session;
  (void)session.handle_line("garbage");
  (void)session.handle_line("garbage");
  (void)session.handle_line(R"({"type":"events","seq":1,"now":0,)"
                            R"("events":[]})");  // no-hello
  (void)session.handle_line(kHello);
  (void)session.handle_line(submit_batch(5, 0, 0, 10, 1));  // bad-seq
  const ProtocolReport& report = session.report();
  EXPECT_EQ(report.frames, 5u);
  EXPECT_EQ(report.rejected, 4u);
  EXPECT_EQ(report.reasons.at("bad-json"), 2u);
  EXPECT_EQ(report.reasons.at("no-hello"), 1u);
  EXPECT_EQ(report.reasons.at("bad-seq"), 1u);
  const std::string reply = session.handle_line(R"({"type":"report"})");
  EXPECT_EQ(parse_json(reply).find("rejected")->as_int(), 4);
  EXPECT_EQ(parse_json(reply)
                .find("reasons")
                ->find("bad-json")
                ->as_int(),
            2);
}

TEST(Session, StatsReflectTheCore) {
  Session session;
  (void)session.handle_line(kHello);
  (void)session.handle_line(submit_batch(1, 0, 0, 100, 4));
  (void)session.handle_line(submit_batch(2, 10, 1, 100, 8));  // must wait
  const std::string reply = session.handle_line(R"({"type":"stats"})");
  const Json stats = parse_json(reply);
  EXPECT_EQ(stats.find("events")->as_int(), 2);
  EXPECT_EQ(stats.find("queued")->as_int(), 1);
  EXPECT_EQ(stats.find("running")->as_int(), 1);
  EXPECT_EQ(stats.find("max_queue")->as_int(), 1);
}

TEST(Session, ByeClosesTheSession) {
  Session session;
  (void)session.handle_line(kHello);
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(reply_type(session.handle_line(R"({"type":"bye"})")), "bye");
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(error_reason(session.handle_line(submit_batch(1, 0, 0, 10, 1))),
            "closed");
}

TEST(Session, WakeFramesDriveReservationsAtEventlessInstants) {
  // Conservative + a blocked queue: the decision carries next_wakeup;
  // honouring it with a wake frame at that instant starts the waiter.
  Session session;
  (void)session.handle_line(
      R"({"type":"hello","v":3,"scheduler":"conservative","procs":4})");
  (void)session.handle_line(submit_batch(1, 0, 0, 100, 4));  // occupies all
  const std::string blocked = session.handle_line(submit_batch(2, 1, 1, 50, 4));
  const Json decision = parse_json(blocked);
  ASSERT_EQ(reply_type(blocked), "decisions");
  EXPECT_EQ(decision.find("starts")->as_array().size(), 0u);
  ASSERT_TRUE(decision.find("next_wakeup")->is_int());
  const core::Time wake_at = decision.find("next_wakeup")->as_int();
  EXPECT_EQ(wake_at, 100);  // job 0's estimate expires
  // The client reports the finish at the same instant; the reservation
  // fires within that batch.
  const std::string at_wake = session.handle_line(
      R"({"type":"events","seq":3,"now":100,)"
      R"("events":[{"kind":"finish","id":0},{"kind":"wake"}]})");
  const Json fired = parse_json(at_wake);
  ASSERT_EQ(fired.find("starts")->as_array().size(), 1u);
  EXPECT_EQ(fired.find("starts")->as_array()[0].as_int(), 1);
}

}  // namespace
}  // namespace bfsim::svc
