#include "svc/protocol.hpp"

#include <charconv>
#include <limits>
#include <span>

#include "core/priority.hpp"
#include "sim/time.hpp"
#include "workload/swf.hpp"

namespace bfsim::svc {

namespace {

[[noreturn]] void reject(const char* reason, const std::string& detail) {
  throw ProtocolError(reason, detail);
}

/// Required object member, or "missing-field".
const Json& need(const Json& object, std::string_view key) {
  const Json* value = object.find(key);
  if (value == nullptr)
    reject("missing-field", "frame is missing required field '" +
                                std::string(key) + "'");
  return *value;
}

/// Integral field (JSON integer only -- 1.5 ids or 1e3 times are
/// rejected rather than rounded).
std::int64_t need_int(const Json& object, std::string_view key) {
  const Json& value = need(object, key);
  if (!value.is_int())
    reject("bad-type", "field '" + std::string(key) + "' must be an integer");
  return value.as_int();
}

const std::string& need_string(const Json& object, std::string_view key) {
  const Json& value = need(object, key);
  if (!value.is_string())
    reject("bad-type", "field '" + std::string(key) + "' must be a string");
  return value.as_string();
}

bool optional_bool(const Json& object, std::string_view key, bool fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_bool())
    reject("bad-type", "field '" + std::string(key) + "' must be a boolean");
  return value->as_bool();
}

std::int64_t optional_int(const Json& object, std::string_view key,
                          std::int64_t fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_int())
    reject("bad-type", "field '" + std::string(key) + "' must be an integer");
  return value->as_int();
}

double optional_number(const Json& object, std::string_view key,
                       double fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number())
    reject("bad-type", "field '" + std::string(key) + "' must be a number");
  return value->as_double();
}

/// A wire time: non-negative, bounded by the same hostility cap the SWF
/// reader applies (kDefaultMaxSwfTime), so no arithmetic downstream can
/// overflow even for adversarial inputs.
core::Time need_time(const Json& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 || raw > workload::kDefaultMaxSwfTime)
    reject("bad-value", "field '" + std::string(key) + "' is out of range");
  return raw;
}

workload::JobId need_job_id(const Json& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 || raw >= static_cast<std::int64_t>(workload::kInvalidJob))
    reject("bad-value", "field '" + std::string(key) + "' is not a job id");
  return static_cast<workload::JobId>(raw);
}

HelloRequest parse_hello(const Json& frame) {
  HelloRequest hello;
  hello.version = need_int(frame, "v");
  if (hello.version != kProtocolVersion)
    reject("bad-version", "protocol version " + std::to_string(hello.version) +
                              " is not supported (this build speaks " +
                              std::to_string(kProtocolVersion) + ")");
  try {
    hello.kind = core::scheduler_kind_from_string(need_string(frame, "scheduler"));
  } catch (const std::invalid_argument& error) {
    reject("bad-value", error.what());
  }
  const std::int64_t procs = need_int(frame, "procs");
  if (procs < 1 || procs > std::numeric_limits<int>::max())
    reject("bad-value", "'procs' must be a positive machine size");
  hello.config.procs = static_cast<int>(procs);
  const std::int64_t bb = optional_int(frame, "burst_buffer", 0);
  if (bb < 0 || bb > std::numeric_limits<int>::max())
    reject("bad-value", "'burst_buffer' must be a non-negative capacity");
  hello.config.burst_buffer = static_cast<int>(bb);
  if (const Json* priority = frame.find("priority")) {
    if (!priority->is_string())
      reject("bad-type", "field 'priority' must be a string");
    try {
      hello.config.priority = core::priority_from_string(priority->as_string());
    } catch (const std::invalid_argument& error) {
      reject("bad-value", error.what());
    }
  }
  hello.audit = optional_bool(frame, "audit", false);
  const std::int64_t depth =
      optional_int(frame, "reservation_depth", hello.extras.reservation_depth);
  if (depth < 1 || depth > std::numeric_limits<int>::max())
    reject("bad-value", "'reservation_depth' must be positive");
  hello.extras.reservation_depth = static_cast<int>(depth);
  hello.extras.xfactor_threshold = optional_number(
      frame, "xfactor_threshold", hello.extras.xfactor_threshold);
  hello.extras.selective_adaptive = optional_bool(
      frame, "selective_adaptive", hello.extras.selective_adaptive);
  hello.extras.slack_factor =
      optional_number(frame, "slack_factor", hello.extras.slack_factor);
  if (hello.extras.xfactor_threshold < 0 || hello.extras.slack_factor < 0)
    reject("bad-value", "policy thresholds must be non-negative");
  if (const Json* requeue = frame.find("requeue")) {
    if (!requeue->is_string())
      reject("bad-type", "field 'requeue' must be a string");
    try {
      hello.requeue = sim::requeue_policy_from_string(requeue->as_string());
    } catch (const std::invalid_argument& error) {
      reject("bad-value", error.what());
    }
  }
  return hello;
}

sim::OutageId need_outage_id(const Json& object, std::string_view key) {
  const std::int64_t raw = need_int(object, key);
  if (raw < 0 ||
      raw >= static_cast<std::int64_t>(core::kMaxTrackedOutages))
    reject("bad-value",
           "field '" + std::string(key) + "' is not an outage id");
  return static_cast<sim::OutageId>(raw);
}

Event parse_event(const Json& entry) {
  if (!entry.is_object()) reject("bad-type", "each event must be an object");
  const std::string& kind = need_string(entry, "kind");
  Event event;
  if (kind == "finish") {
    event.kind = EventKind::kFinish;
    event.id = need_job_id(entry, "id");
  } else if (kind == "submit") {
    event.kind = EventKind::kSubmit;
    event.id = need_job_id(entry, "id");
    event.job.id = event.id;
    event.job.submit = need_time(entry, "submit");
    event.job.estimate = need_time(entry, "estimate");
    // The scheduler-visible wall-clock limit is all the service knows;
    // the true runtime stays with the client.
    event.job.runtime = event.job.estimate;
    const std::int64_t procs = need_int(entry, "procs");
    if (procs < 1 || procs > std::numeric_limits<int>::max())
      reject("bad-value", "'procs' must be positive");
    event.job.procs = static_cast<int>(procs);
    const std::int64_t bb = optional_int(entry, "bb", 0);
    if (bb < 0 || bb > std::numeric_limits<int>::max())
      reject("bad-value", "'bb' must be a non-negative burst-buffer demand");
    event.job.bb = static_cast<int>(bb);
  } else if (kind == "cancel") {
    event.kind = EventKind::kCancel;
    event.id = need_job_id(entry, "id");
  } else if (kind == "wake") {
    event.kind = EventKind::kWake;
  } else if (kind == "down") {
    event.kind = EventKind::kDown;
    event.outage.id = need_outage_id(entry, "outage");
    // down_at never crosses the wire: the outage takes effect at the
    // batch instant, which the session stamps before applying.
    event.outage.repair_at = need_time(entry, "repair");
    const std::int64_t procs = need_int(entry, "procs");
    if (procs < 0 || procs > std::numeric_limits<int>::max())
      reject("bad-value", "'procs' must be a non-negative loss");
    event.outage.procs = static_cast<int>(procs);
    const std::int64_t bb = optional_int(entry, "bb", 0);
    if (bb < 0 || bb > std::numeric_limits<int>::max())
      reject("bad-value", "'bb' must be a non-negative burst-buffer loss");
    event.outage.bb = static_cast<int>(bb);
    // Both are non-negative; their sum could overflow.
    if (event.outage.procs == 0 && event.outage.bb == 0)
      reject("bad-value", "a down event must lose some capacity");
  } else if (kind == "up") {
    event.kind = EventKind::kRepair;
    event.outage.id = need_outage_id(entry, "outage");
  } else {
    reject("bad-value", "unknown event kind '" + kind + "'");
  }
  return event;
}

EventBatch parse_events(const Json& frame) {
  EventBatch batch;
  const std::int64_t seq = need_int(frame, "seq");
  if (seq < 1) reject("bad-value", "'seq' must be >= 1");
  batch.seq = static_cast<std::uint64_t>(seq);
  batch.now = need_time(frame, "now");
  const Json& events = need(frame, "events");
  if (!events.is_array())
    reject("bad-type", "field 'events' must be an array");
  if (events.as_array().size() > kMaxBatchEvents)
    reject("oversized-frame",
           "batch carries more than " + std::to_string(kMaxBatchEvents) +
               " events");
  batch.events.reserve(events.as_array().size());
  for (const Json& entry : events.as_array())
    batch.events.push_back(parse_event(entry));
  return batch;
}

// The hot-frame encoders below write what Json::dump would write for
// the same members: std::to_chars prints an integer as std::to_string
// does, and the keys need no escaping.

void append_int(std::string& out, std::int64_t value) {
  char digits[20];  // "-9223372036854775808"
  const std::to_chars_result done =
      std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, done.ptr);
}

/// `,"key":value` -- a member after the first.
void append_member(std::string& out, std::string_view key,
                   std::int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_int(out, value);
}

void append_ids(std::string& out, std::span<const workload::JobId> ids) {
  out += '[';
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    append_int(out, static_cast<std::int64_t>(ids[i]));
  }
  out += ']';
}

}  // namespace

std::string events_request(const EventBatch& batch) {
  std::string out;
  out.reserve(64 + 80 * batch.events.size());
  out += R"({"type":"events")";
  append_member(out, "seq", static_cast<std::int64_t>(batch.seq));
  append_member(out, "now", batch.now);
  out += R"(,"events":[)";
  for (std::size_t i = 0; i < batch.events.size(); ++i) {
    const Event& event = batch.events[i];
    if (i > 0) out += ',';
    out += R"({"kind":")";
    out += to_string(event.kind);
    out += '"';
    switch (event.kind) {
      case EventKind::kFinish:
      case EventKind::kCancel:
        append_member(out, "id", static_cast<std::int64_t>(event.id));
        break;
      case EventKind::kSubmit:
        append_member(out, "id", static_cast<std::int64_t>(event.job.id));
        append_member(out, "submit", event.job.submit);
        append_member(out, "estimate", event.job.estimate);
        append_member(out, "procs", event.job.procs);
        append_member(out, "bb", event.job.bb);
        break;
      case EventKind::kDown:
        append_member(out, "outage",
                      static_cast<std::int64_t>(event.outage.id));
        append_member(out, "repair", event.outage.repair_at);
        append_member(out, "procs", event.outage.procs);
        append_member(out, "bb", event.outage.bb);
        break;
      case EventKind::kRepair:
        append_member(out, "outage",
                      static_cast<std::int64_t>(event.outage.id));
        break;
      case EventKind::kWake: break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kFinish: return "finish";
    case EventKind::kRepair: return "up";
    case EventKind::kDown: return "down";
    case EventKind::kSubmit: return "submit";
    case EventKind::kCancel: return "cancel";
    case EventKind::kWake: return "wake";
  }
  return "?";
}

Request parse_request(std::string_view line) {
  if (line.size() > kMaxFrameBytes)
    reject("oversized-frame", "frame exceeds " +
                                  std::to_string(kMaxFrameBytes) + " bytes");
  Json frame;
  try {
    frame = parse_json(line);
  } catch (const JsonError& error) {
    reject("bad-json", error.what());
  }
  if (!frame.is_object()) reject("not-object", "frame must be a JSON object");
  const std::string& type = need_string(frame, "type");
  Request request;
  if (type == "hello") {
    request.type = Request::Type::kHello;
    request.hello = parse_hello(frame);
  } else if (type == "events") {
    request.type = Request::Type::kEvents;
    request.batch = parse_events(frame);
  } else if (type == "stats") {
    request.type = Request::Type::kStats;
  } else if (type == "report") {
    request.type = Request::Type::kReport;
  } else if (type == "bye") {
    request.type = Request::Type::kBye;
  } else {
    reject("unknown-type", "unknown frame type '" + type + "'");
  }
  return request;
}

std::string welcome_reply(const std::string& scheduler_name,
                          std::uint64_t resumed_seq) {
  Json reply = Json::object();
  reply.set("type", Json::string("welcome"));
  reply.set("v", Json::integer(kProtocolVersion));
  reply.set("scheduler", Json::string(scheduler_name));
  reply.set("resumed_seq",
            Json::integer(static_cast<std::int64_t>(resumed_seq)));
  return reply.dump();
}

std::string decision_reply(std::uint64_t seq, core::Time now,
                           const core::CycleDecision& decision) {
  std::string out;
  out.reserve(96 + 8 * (decision.starts.size() + decision.killed.size()));
  out += R"({"type":"decisions")";
  append_member(out, "seq", static_cast<std::int64_t>(seq));
  append_member(out, "now", now);
  out += decision.pass_ran ? R"(,"pass":true)" : R"(,"pass":false)";
  out += R"(,"starts":)";
  append_ids(out, decision.starts);
  // Emitted only when an outage voided runs, so outage-free replies are
  // byte-identical to protocol v2's.
  if (!decision.killed.empty()) {
    out += R"(,"killed":)";
    append_ids(out, decision.killed);
  }
  if (decision.next_wakeup == sim::kNoTime)
    out += R"(,"next_wakeup":null)";
  else
    append_member(out, "next_wakeup", decision.next_wakeup);
  out += '}';
  return out;
}

std::string stats_reply(const core::DecisionStats& stats, std::size_t queued,
                        std::size_t running) {
  Json reply = Json::object();
  reply.set("type", Json::string("stats"));
  reply.set("events", Json::integer(static_cast<std::int64_t>(stats.events)));
  reply.set("passes", Json::integer(static_cast<std::int64_t>(stats.passes)));
  reply.set("passes_skipped",
            Json::integer(static_cast<std::int64_t>(stats.passes_skipped)));
  reply.set("wakeups", Json::integer(static_cast<std::int64_t>(stats.wakeups)));
  reply.set("max_queue",
            Json::integer(static_cast<std::int64_t>(stats.max_queue)));
  reply.set("outages",
            Json::integer(static_cast<std::int64_t>(stats.outages)));
  reply.set("repairs",
            Json::integer(static_cast<std::int64_t>(stats.repairs)));
  reply.set("kills", Json::integer(static_cast<std::int64_t>(stats.kills)));
  reply.set("queued", Json::integer(static_cast<std::int64_t>(queued)));
  reply.set("running", Json::integer(static_cast<std::int64_t>(running)));
  return reply.dump();
}

std::string report_reply(const ProtocolReport& report) {
  Json reply = Json::object();
  reply.set("type", Json::string("report"));
  reply.set("frames", Json::integer(static_cast<std::int64_t>(report.frames)));
  reply.set("rejected",
            Json::integer(static_cast<std::int64_t>(report.rejected)));
  Json reasons = Json::object();
  for (const auto& [reason, count] : report.reasons)
    reasons.set(reason, Json::integer(static_cast<std::int64_t>(count)));
  reply.set("reasons", std::move(reasons));
  return reply.dump();
}

std::string error_reply(const std::string& reason, const std::string& detail) {
  Json reply = Json::object();
  reply.set("type", Json::string("error"));
  reply.set("reason", Json::string(reason));
  reply.set("detail", Json::string(detail));
  return reply.dump();
}

std::string bye_reply() {
  Json reply = Json::object();
  reply.set("type", Json::string("bye"));
  return reply.dump();
}

core::CycleDecision parse_decision_reply(
    std::string_view line, std::uint64_t expect_seq,
    std::vector<workload::JobId>& start_storage,
    std::vector<workload::JobId>& kill_storage) {
  Json frame;
  try {
    frame = parse_json(line);
  } catch (const JsonError& error) {
    reject("bad-json", error.what());
  }
  if (!frame.is_object()) reject("not-object", "reply must be a JSON object");
  const std::string& type = need_string(frame, "type");
  if (type == "error")
    reject("server-error", need_string(frame, "reason") + ": " +
                               need_string(frame, "detail"));
  if (type != "decisions")
    reject("bad-value", "expected a 'decisions' reply, got '" + type + "'");
  const std::int64_t seq = need_int(frame, "seq");
  if (seq < 0 || static_cast<std::uint64_t>(seq) != expect_seq)
    reject("bad-seq", "reply for seq " + std::to_string(seq) +
                          ", expected " + std::to_string(expect_seq));
  core::CycleDecision decision;
  decision.pass_ran = [&frame] {
    const Json& pass = need(frame, "pass");
    if (!pass.is_bool()) reject("bad-type", "'pass' must be a boolean");
    return pass.as_bool();
  }();
  const Json& starts = need(frame, "starts");
  if (!starts.is_array()) reject("bad-type", "'starts' must be an array");
  start_storage.clear();
  for (const Json& entry : starts.as_array()) {
    if (!entry.is_int()) reject("bad-type", "start ids must be integers");
    const std::int64_t id = entry.as_int();
    if (id < 0 || id >= static_cast<std::int64_t>(workload::kInvalidJob))
      reject("bad-value", "start id out of range");
    start_storage.push_back(static_cast<workload::JobId>(id));
  }
  decision.starts = start_storage;
  kill_storage.clear();
  if (const Json* killed = frame.find("killed")) {
    if (!killed->is_array()) reject("bad-type", "'killed' must be an array");
    for (const Json& entry : killed->as_array()) {
      if (!entry.is_int()) reject("bad-type", "killed ids must be integers");
      const std::int64_t id = entry.as_int();
      if (id < 0 || id >= static_cast<std::int64_t>(workload::kInvalidJob))
        reject("bad-value", "killed id out of range");
      kill_storage.push_back(static_cast<workload::JobId>(id));
    }
  }
  decision.killed = kill_storage;
  const Json& wake = need(frame, "next_wakeup");
  if (wake.is_null()) {
    decision.next_wakeup = sim::kNoTime;
  } else if (wake.is_int() && wake.as_int() >= 0) {
    decision.next_wakeup = wake.as_int();
  } else {
    reject("bad-value", "'next_wakeup' must be null or a non-negative time");
  }
  return decision;
}

}  // namespace bfsim::svc
