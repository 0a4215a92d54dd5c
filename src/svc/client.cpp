#include "svc/client.hpp"

#include <cerrno>

#include "core/priority.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace bfsim::svc {

namespace {

[[noreturn]] void reject(const char* reason, const std::string& detail) {
  throw ProtocolError(reason, detail);
}

std::string hello_frame(const HelloRequest& hello) {
  Json frame = Json::object();
  frame.set("type", Json::string("hello"));
  frame.set("v", Json::integer(hello.version));
  frame.set("scheduler", Json::string(core::to_string(hello.kind)));
  frame.set("procs", Json::integer(hello.config.procs));
  frame.set("burst_buffer", Json::integer(hello.config.burst_buffer));
  frame.set("priority", Json::string(core::to_string(hello.config.priority)));
  frame.set("audit", Json::boolean(hello.audit));
  frame.set("reservation_depth",
            Json::integer(hello.extras.reservation_depth));
  frame.set("xfactor_threshold", Json::number(hello.extras.xfactor_threshold));
  frame.set("selective_adaptive",
            Json::boolean(hello.extras.selective_adaptive));
  frame.set("slack_factor", Json::number(hello.extras.slack_factor));
  frame.set("requeue", Json::string(std::string(sim::to_string(hello.requeue))));
  return frame.dump();
}

/// Parse a reply and demand it is an object of the given type; an
/// `error` reply surfaces as ProtocolError "server-error".
Json expect_reply(std::string_view line, std::string_view type) {
  Json frame;
  try {
    frame = parse_json(line);
  } catch (const JsonError& error) {
    reject("bad-json", error.what());
  }
  if (!frame.is_object()) reject("not-object", "reply must be a JSON object");
  const Json* got = frame.find("type");
  if (got == nullptr || !got->is_string())
    reject("bad-type", "reply has no type");
  if (got->as_string() == "error") {
    const Json* reason = frame.find("reason");
    const Json* detail = frame.find("detail");
    reject("server-error",
           (reason != nullptr && reason->is_string() ? reason->as_string()
                                                     : std::string("?")) +
               ": " +
               (detail != nullptr && detail->is_string() ? detail->as_string()
                                                         : std::string()));
  }
  if (got->as_string() != type)
    reject("bad-value", "expected a '" + std::string(type) + "' reply, got '" +
                            got->as_string() + "'");
  return frame;
}

std::uint64_t reply_uint(const Json& frame, std::string_view key) {
  const Json* value = frame.find(key);
  if (value == nullptr || !value->is_int() || value->as_int() < 0)
    reject("bad-type",
           "reply field '" + std::string(key) + "' must be a non-negative "
           "integer");
  return static_cast<std::uint64_t>(value->as_int());
}

}  // namespace

std::string FdChannel::roundtrip(const std::string& line) {
#if defined(__unix__) || defined(__APPLE__)
  if (!out_.write_all(line + '\n'))
    throw ChannelError("write failed: peer gone");
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string reply = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      return reply;
    }
    char chunk[4096];
    const ssize_t got = ::read(in_fd_, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw ChannelError("read failed: peer gone");
    }
    if (got == 0) throw ChannelError("peer closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
#else
  (void)line;
  throw ChannelError("FdChannel is POSIX-only");
#endif
}

RemoteDecisionCore::RemoteDecisionCore(LineChannel& channel,
                                       const HelloRequest& hello)
    : channel_(&channel), hello_(hello) {
  handshake();
}

void RemoteDecisionCore::handshake() {
  const Json welcome =
      expect_reply(channel_->roundtrip(hello_frame(hello_)), "welcome");
  const Json* name = welcome.find("scheduler");
  if (name == nullptr || !name->is_string())
    reject("bad-type", "welcome reply names no scheduler");
  scheduler_name_ = name->as_string();
  const std::uint64_t resumed = reply_uint(welcome, "resumed_seq");
  // The daemon may hold one frame more than we saw acknowledged (it
  // logged the in-flight frame but its reply was lost) or exactly our
  // acknowledged prefix (it died first); anything else means the state
  // file is not this conversation's.
  const bool consistent =
      resumed == acked_seq_ ||
      (!inflight_.empty() && resumed == acked_seq_ + 1);
  if (!consistent)
    reject("bad-resume", "daemon resumed at seq " + std::to_string(resumed) +
                             " but this client acknowledged " +
                             std::to_string(acked_seq_));
}

void RemoteDecisionCore::reconnect(LineChannel& channel) {
  channel_ = &channel;
  handshake();
  if (inflight_.empty()) return;
  // Retransmit the unacknowledged frame: the daemon either applies it
  // (it died before logging) or answers from its reply cache.
  const std::string reply = channel_->roundtrip(inflight_);
  (void)parse_decision_reply(reply, acked_seq_ + 1, start_storage_,
                             kill_storage_);
  ++acked_seq_;
  inflight_.clear();
}

void RemoteDecisionCore::on_submit(const core::Job& job, core::Time now) {
  (void)now;  // the batch instant ships once, on the frame
  batch_.events.push_back({EventKind::kSubmit, job.id, job, {}});
}

void RemoteDecisionCore::on_finish(workload::JobId id, core::Time now) {
  (void)now;
  batch_.events.push_back({EventKind::kFinish, id, {}, {}});
}

void RemoteDecisionCore::on_cancel(workload::JobId id, core::Time now) {
  (void)now;
  batch_.events.push_back({EventKind::kCancel, id, {}, {}});
}

void RemoteDecisionCore::on_wake(core::Time now) {
  (void)now;
  batch_.events.push_back({EventKind::kWake, workload::kInvalidJob, {}, {}});
}

void RemoteDecisionCore::on_node_down(const sim::Outage& outage,
                                      core::Time now) {
  (void)now;  // down_at is implied by the batch instant
  batch_.events.push_back(
      {EventKind::kDown, workload::kInvalidJob, {}, outage});
}

void RemoteDecisionCore::on_node_up(sim::OutageId id, core::Time now) {
  (void)now;
  batch_.events.push_back(
      {EventKind::kRepair, workload::kInvalidJob, {}, {.id = id}});
}

core::CycleDecision RemoteDecisionCore::end_cycle(core::Time now) {
  const std::uint64_t seq = acked_seq_ + 1;
  batch_.seq = seq;
  batch_.now = now;
  inflight_ = events_request(batch_);
  batch_.events.clear();
  std::string reply;
  try {
    reply = channel_->roundtrip(inflight_);
  } catch (const ChannelError&) {
    // The transport died with this frame in flight. Reconnectable
    // channels come back usable after throwing (the daemon restarts
    // from its event log); re-handshake and retransmit -- the daemon
    // deduplicates by sequence number.
    handshake();
    reply = channel_->roundtrip(inflight_);
  }
  const core::CycleDecision decision =
      parse_decision_reply(reply, seq, start_storage_, kill_storage_);
  acked_seq_ = seq;
  inflight_.clear();
  return decision;
}

const core::DecisionStats& RemoteDecisionCore::stats() {
  if (!stats_fetched_) {
    Json frame = Json::object();
    frame.set("type", Json::string("stats"));
    const Json reply =
        expect_reply(channel_->roundtrip(frame.dump()), "stats");
    stats_.events = reply_uint(reply, "events");
    stats_.passes = reply_uint(reply, "passes");
    stats_.passes_skipped = reply_uint(reply, "passes_skipped");
    stats_.wakeups = reply_uint(reply, "wakeups");
    stats_.max_queue = static_cast<std::size_t>(reply_uint(reply, "max_queue"));
    stats_.outages = reply_uint(reply, "outages");
    stats_.repairs = reply_uint(reply, "repairs");
    stats_.kills = reply_uint(reply, "kills");
    stats_fetched_ = true;
  }
  return stats_;
}

core::SimulationResult served_run(const core::Trace& trace,
                                  LineChannel& channel,
                                  const HelloRequest& hello,
                                  const sim::FailureTrace* failures) {
  core::validate_replay_trace(trace, hello.config.procs,
                              hello.config.burst_buffer);
  if (failures != nullptr)
    sim::validate_failure_trace(*failures, hello.config.procs,
                                hello.config.burst_buffer);
  RemoteDecisionCore core{channel, hello};
  core::EngineReplay<RemoteDecisionCore> replay{trace, core, failures};
  core::SimulationResult result = replay.run();
  Json bye = Json::object();
  bye.set("type", Json::string("bye"));
  (void)expect_reply(channel.roundtrip(bye.dump()), "bye");
  return result;
}

}  // namespace bfsim::svc
