// bfsim -- the scheduling-service wire protocol (version 3).
//
// Line-delimited JSON, one frame per line, one reply per frame. The
// client opens with a `hello` naming the protocol version and the
// scheduler configuration; after the `welcome`, each `events` frame
// carries one same-time batch (a sequence number, the batch instant,
// and the events in decision-core order: finishes, repairs, downs,
// submits, cancels, wakes) and is answered by a `decisions` frame --
// the jobs that start now, the runs an outage voided, and the next
// wake-up instant. True runtimes never cross the wire: completions are
// events the client reports, exactly as a production resource manager
// would.
//
// Parsing is strict and hostile-input-first, in the spirit of the SWF
// reader's quarantine (workload/swf.hpp): every malformed frame maps
// to a ProtocolError carrying a stable reason slug, the session turns
// it into a structured `error` reply, and a per-reason counter in
// ProtocolReport records what arrived -- the frame is rejected, never
// the process.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/decision_core.hpp"
#include "core/scheduler.hpp"
#include "svc/json.hpp"

namespace bfsim::svc {

/// Protocol version spoken by this build; `hello` frames naming any
/// other version are rejected with reason "bad-version". Version 2
/// added the burst-buffer axis: `hello` gained the optional
/// "burst_buffer" machine capacity and submit events the optional "bb"
/// per-job demand (both >= 0, both defaulting to 0 = axis absent).
/// Version 3 added availability: `hello` gained the optional "requeue"
/// policy ("full" | "remaining"), batches the "down"/"up" outage
/// events, and `decisions` replies the "killed" array (present only
/// when an outage voided runs, so outage-free replies are byte-
/// identical to version 2's).
inline constexpr std::int64_t kProtocolVersion = 3;

/// Upper bound on one frame line, before parsing. A line longer than
/// this is quarantined as "oversized-frame" without being parsed --
/// the cheap outermost defence against memory-exhaustion input.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Upper bound on events in one `events` frame (a same-time batch).
inline constexpr std::size_t kMaxBatchEvents = 1 << 16;

/// A frame violated the protocol. `reason()` is a stable slug (the
/// quarantine-counter key); what() adds human detail.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string reason, const std::string& detail)
      : std::runtime_error(detail), reason_(std::move(reason)) {}

  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Per-reason quarantine counters, mirroring workload::SwfParseReport:
/// total frames seen, frames rejected, and how many times each reason
/// slug fired. std::map so iteration (and thus every serialization) is
/// deterministic.
struct ProtocolReport {
  std::uint64_t frames = 0;    ///< frames handled (including rejected)
  std::uint64_t rejected = 0;  ///< frames answered with an `error` reply
  std::map<std::string, std::uint64_t> reasons;

  void count_rejected(const std::string& reason) {
    ++rejected;
    ++reasons[reason];
  }
};

/// The `hello` opening frame: protocol version plus the full scheduler
/// configuration, so a daemon resuming from its event log can refuse a
/// client whose config diverges from the logged session.
struct HelloRequest {
  std::int64_t version = kProtocolVersion;
  core::SchedulerKind kind = core::SchedulerKind::Easy;
  core::SchedulerConfig config;
  core::SchedulerExtras extras;
  bool audit = false;  ///< attach a ScheduleAuditor for the session
  /// What happens to outage-killed jobs, fixed for the whole session.
  sim::RequeuePolicy requeue = sim::RequeuePolicy::kResubmitFull;
};

/// Event kinds, in their mandatory within-batch order (the same
/// within-instant order the replay engine enforces structurally:
/// finish < repair < down < submit < cancel < wake).
enum class EventKind : std::uint8_t {
  kFinish = 0,
  kRepair = 1,
  kDown = 2,
  kSubmit = 3,
  kCancel = 4,
  kWake = 5,
};

[[nodiscard]] std::string_view to_string(EventKind kind);

/// One event inside an `events` frame. For submits, `job` carries the
/// scheduler-visible fields only (estimate, procs; runtime is set equal
/// to the estimate and cancel_at stays kNoTime -- neither exists on the
/// wire). For finish/cancel, only `id` is meaningful. For down events,
/// `outage` carries id/repair_at/procs/bb (down_at is the batch
/// instant and never crosses the wire); for up events, only outage.id.
struct Event {
  EventKind kind = EventKind::kWake;
  workload::JobId id = workload::kInvalidJob;
  core::Job job;
  sim::Outage outage;
};

/// One `events` frame: a same-time batch closed by one decision cycle.
struct EventBatch {
  std::uint64_t seq = 0;  ///< 1-based, strictly increasing per session
  core::Time now = 0;     ///< the batch instant
  std::vector<Event> events;
};

/// A parsed request frame.
struct Request {
  enum class Type : std::uint8_t { kHello, kEvents, kStats, kReport, kBye };
  Type type = Type::kBye;
  HelloRequest hello;  ///< valid when type == kHello
  EventBatch batch;    ///< valid when type == kEvents
};

/// Parse one request line. Throws ProtocolError (with a stable reason
/// slug) on any malformed, oversized, unknown or ill-typed frame.
[[nodiscard]] Request parse_request(std::string_view line);

/// Encode one `events` frame (no trailing newline), the inverse of
/// parse_request on it. Submits carry the job's id, submit, estimate,
/// procs and bb; downs carry the outage's id, repair_at, procs and bb;
/// finish and cancel carry `id`, up carries `outage.id`, wake nothing.
[[nodiscard]] std::string events_request(const EventBatch& batch);

// Reply builders. Every reply is one compact JSON line (no trailing
// newline); field order is fixed, so replies are byte-deterministic.
// The hot frames (`events` requests, `decisions` replies) carry only
// integers, booleans and null under fixed ASCII keys, so they are
// written straight into one string; the cold ones dump a Json tree.
[[nodiscard]] std::string welcome_reply(const std::string& scheduler_name,
                                        std::uint64_t resumed_seq);
[[nodiscard]] std::string decision_reply(std::uint64_t seq, core::Time now,
                                         const core::CycleDecision& decision);
[[nodiscard]] std::string stats_reply(const core::DecisionStats& stats,
                                      std::size_t queued, std::size_t running);
[[nodiscard]] std::string report_reply(const ProtocolReport& report);
[[nodiscard]] std::string error_reply(const std::string& reason,
                                      const std::string& detail);
[[nodiscard]] std::string bye_reply();

/// Parse a `decisions` reply back into a CycleDecision whose starts
/// and killed ids live in `start_storage` / `kill_storage` (the remote
/// client's side of the wire). Throws ProtocolError on anything that
/// is not a well-formed decisions frame; an `error` reply surfaces as
/// reason "server-error" with the server's reason in the detail.
[[nodiscard]] core::CycleDecision parse_decision_reply(
    std::string_view line, std::uint64_t expect_seq,
    std::vector<workload::JobId>& start_storage,
    std::vector<workload::JobId>& kill_storage);

}  // namespace bfsim::svc
