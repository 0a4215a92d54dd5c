// bfsim -- the client side of the scheduling service.
//
// RemoteDecisionCore models the core::DecisionCore API over a line
// channel: events buffer locally and ship as one `events` frame when
// the batch closes, the `decisions` reply becomes the CycleDecision.
// Plugged into core::EngineReplay it turns any SWF trace into a live
// conversation with a bfsim_served daemon -- the replay client owns
// the true runtimes and the discrete-event clock, the daemon owns the
// policy, and the returned SimulationResult is byte-comparable with
// run_simulation's. LocalChannel short-circuits the wire by calling a
// Session in-process, which is how the served differential tests pin
// "daemon == simulator" without sockets.
//
// Reliability: the reply is the acknowledgement. The client keeps the
// one in-flight frame until its reply arrives; when the channel dies
// and the daemon comes back (event-sourced restore, eventlog.hpp),
// reconnect() re-handshakes and retransmits that frame -- the daemon
// either replays its cached reply (the frame was logged before the
// reply was lost) or applies it fresh (it died first), and the
// conversation continues exactly where it broke.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/decision_core.hpp"
#include "core/replay.hpp"
#include "core/simulation.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

namespace bfsim::svc {

/// The transport broke (peer gone, pipe closed). Distinct from
/// ProtocolError: the frame may or may not have been applied, so the
/// caller retransmits after reconnecting.
class ChannelError : public std::runtime_error {
 public:
  explicit ChannelError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One synchronous request/reply transport.
class LineChannel {
 public:
  virtual ~LineChannel() = default;
  /// Send one frame line, return the one reply line. Throws
  /// ChannelError when the transport dies.
  [[nodiscard]] virtual std::string roundtrip(const std::string& line) = 0;
};

/// In-process channel: the "wire" is a Session method call. Still
/// serializes through real JSON frames, so everything except the
/// socket is exercised.
class LocalChannel final : public LineChannel {
 public:
  explicit LocalChannel(Session& session) : session_(&session) {}
  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    return session_->handle_line(line);
  }

 private:
  Session* session_;
};

/// Channel over a descriptor pair (socket: pass the same fd twice).
/// Owns nothing; the caller manages the descriptors' lifetime. A peer
/// that hung up is a ChannelError, never a SIGPIPE (see FdWriter).
class FdChannel final : public LineChannel {
 public:
  FdChannel(int in_fd, int out_fd) : in_fd_(in_fd), out_(out_fd) {}
  [[nodiscard]] std::string roundtrip(const std::string& line) override;

 private:
  int in_fd_;
  FdWriter out_;
  std::string buffer_;  ///< bytes read past the last reply line
};

/// core::DecisionCore's API, implemented by asking a daemon.
class RemoteDecisionCore {
 public:
  /// Performs the hello/welcome handshake on `channel` immediately.
  /// Throws ProtocolError if the server refuses the handshake.
  RemoteDecisionCore(LineChannel& channel, const HelloRequest& hello);

  // -- the DecisionCore API EngineReplay drives ----------------------
  void on_submit(const core::Job& job, core::Time now);
  void on_finish(workload::JobId id, core::Time now);
  void on_cancel(workload::JobId id, core::Time now);
  void on_wake(core::Time now);
  void on_node_down(const sim::Outage& outage, core::Time now);
  void on_node_up(sim::OutageId id, core::Time now);
  [[nodiscard]] sim::RequeuePolicy requeue_policy() const {
    return hello_.requeue;
  }
  [[nodiscard]] core::CycleDecision end_cycle(core::Time now);
  /// Fetched from the daemon on first use after the run (one `stats`
  /// roundtrip), so both fronts report the daemon's own counters.
  [[nodiscard]] const core::DecisionStats& stats();
  [[nodiscard]] std::string name() const { return scheduler_name_; }

  /// Re-handshake on a fresh channel after the old one died, then
  /// retransmit the in-flight frame, if any. The daemon's welcome must
  /// report a resume point consistent with what this client has had
  /// acknowledged (otherwise ProtocolError "bad-resume").
  void reconnect(LineChannel& channel);

  /// Sequence number of the last acknowledged `events` frame.
  [[nodiscard]] std::uint64_t acked_seq() const { return acked_seq_; }

 private:
  void handshake();

  LineChannel* channel_;
  HelloRequest hello_;
  std::string scheduler_name_;
  EventBatch batch_;              ///< batch under construction
  std::uint64_t acked_seq_ = 0;   ///< frames with a received reply
  std::string inflight_;          ///< sent frame awaiting its reply
  std::vector<workload::JobId> start_storage_;
  std::vector<workload::JobId> kill_storage_;
  core::DecisionStats stats_;
  bool stats_fetched_ = false;
};

/// Replay `trace` against a daemon reachable through `channel` and
/// return the schedule, byte-comparable with run_simulation's result
/// for the same trace, scheduler configuration, and failure trace
/// (`failures` may be nullptr; the client injects the outages as
/// down/up events and the daemon picks the victims). Sends `bye` when
/// the replay completes.
[[nodiscard]] core::SimulationResult served_run(
    const core::Trace& trace, LineChannel& channel,
    const HelloRequest& hello, const sim::FailureTrace* failures = nullptr);

}  // namespace bfsim::svc
