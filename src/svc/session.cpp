#include "svc/session.hpp"

#include <map>
#include <utility>

#include "core/scheduler.hpp"

namespace bfsim::svc {

namespace {

/// Two hellos describe the same session iff every scheduler-visible
/// knob matches (exact compare: both sides parsed from JSON the same
/// way, so equal configs are bit-equal).
bool same_session(const HelloRequest& a, const HelloRequest& b) {
  return a.version == b.version && a.kind == b.kind &&
         a.config.procs == b.config.procs &&
         a.config.burst_buffer == b.config.burst_buffer &&
         a.config.priority == b.config.priority &&
         a.extras.reservation_depth == b.extras.reservation_depth &&
         a.extras.xfactor_threshold == b.extras.xfactor_threshold &&
         a.extras.selective_adaptive == b.extras.selective_adaptive &&
         a.extras.slack_factor == b.extras.slack_factor &&
         a.audit == b.audit && a.requeue == b.requeue;
}

}  // namespace

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (!options_.state_path.empty())
    recovered_ = read_event_log(options_.state_path);
}

std::string Session::handle_line(std::string_view line) {
  ++report_.frames;
  try {
    return handle_request(parse_request(line), line);
  } catch (const ProtocolError& error) {
    report_.count_rejected(error.reason());
    return error_reply(error.reason(), error.what());
  }
}

std::string Session::handle_request(const Request& request,
                                    std::string_view line) {
  switch (request.type) {
    case Request::Type::kHello:
      if (core_) {
        // A reconnecting client re-handshakes into the live session
        // (the transport died, the session did not). Idempotent when
        // the configuration matches; a different config is a new
        // session this daemon cannot host.
        if (!same_session(hello_, request.hello))
          throw ProtocolError("hello-mismatch",
                              "session already established with a different "
                              "scheduler configuration");
        closed_ = false;
        return welcome_reply(core_->name(), last_seq_);
      }
      return open_session(request.hello, line);
    case Request::Type::kEvents:
      if (!core_)
        throw ProtocolError("no-hello", "send a 'hello' frame first");
      if (closed_)
        throw ProtocolError("closed", "session already said goodbye");
      if (poisoned_)
        throw ProtocolError(
            "poisoned",
            "a validated frame failed mid-apply; restart the daemon");
      return apply_batch(request.batch, line, /*replaying=*/false);
    case Request::Type::kStats:
      if (!core_)
        throw ProtocolError("no-hello", "send a 'hello' frame first");
      return stats_reply(core_->stats(), core_->queued(), core_->running());
    case Request::Type::kReport:
      return report_reply(report_);
    case Request::Type::kBye:
      closed_ = true;
      return bye_reply();
  }
  throw ProtocolError("unknown-type", "unhandled request type");
}

std::string Session::open_session(const HelloRequest& hello,
                                  std::string_view line) {
  if (!recovered_.hello.empty()) {
    // The log holds a session: this client must be its continuation.
    // (The logged hello was accepted once, so it parses; a log edited
    // into unparseability is a wrong-file mistake worth dying over.)
    const Request logged = parse_request(recovered_.hello);
    if (!same_session(logged.hello, hello))
      throw ProtocolError("hello-mismatch",
                          "the state file belongs to a session with a "
                          "different scheduler configuration");
  }
  hello_ = hello;
  scheduler_ = core::make_scheduler(hello.kind, hello.config, hello.extras);
  if (hello.audit) auditor_.emplace(*scheduler_);
  core_.emplace(*scheduler_, hello.audit ? &*auditor_ : nullptr,
                hello.requeue);
  // Event-sourced restore: replay the logged frames through the fresh
  // core in order. The core is deterministic, so this reconstructs the
  // exact pre-crash scheduler state. A frame that no longer replays
  // cleanly marks the trustworthy prefix's end -- state past it is
  // dropped, and `resumed_seq` tells the client where to pick up.
  for (const auto& [seq, frame] : recovered_.frames) {
    try {
      const Request request = parse_request(frame);
      if (request.type != Request::Type::kEvents ||
          request.batch.seq != last_seq_ + 1)
        break;
      apply_batch(request.batch, frame, /*replaying=*/true);
    } catch (const ProtocolError&) {
      break;
    }
  }
  const bool fresh = recovered_.hello.empty();
  recovered_ = {};
  if (!options_.state_path.empty()) {
    log_ = std::make_unique<EventLogWriter>(options_.state_path);
    if (fresh) log_->record_hello(std::string(line));
  }
  return welcome_reply(core_->name(), last_seq_);
}

std::string Session::apply_batch(const EventBatch& batch,
                                 std::string_view line, bool replaying) {
  // A retransmit of the newest accepted frame gets its cached reply --
  // the client resends after a lost reply, and the frame must not be
  // applied twice.
  if (batch.seq == last_seq_ && !last_reply_.empty()) return last_reply_;
  if (batch.seq != last_seq_ + 1)
    throw ProtocolError("bad-seq",
                        "frame seq " + std::to_string(batch.seq) +
                            ", expected " + std::to_string(last_seq_ + 1));
  validate_batch(batch);
  core::CycleDecision decision;
  try {
    for (const Event& event : batch.events) {
      switch (event.kind) {
        case EventKind::kFinish: core_->on_finish(event.id, batch.now); break;
        case EventKind::kRepair:
          core_->on_node_up(event.outage.id, batch.now);
          break;
        case EventKind::kDown: {
          sim::Outage outage = event.outage;
          outage.down_at = batch.now;  // implied by the batch instant
          core_->on_node_down(outage, batch.now);
          break;
        }
        case EventKind::kSubmit: core_->on_submit(event.job, batch.now); break;
        case EventKind::kCancel: core_->on_cancel(event.id, batch.now); break;
        case EventKind::kWake: core_->on_wake(batch.now); break;
      }
    }
    decision = core_->end_cycle(batch.now);
  } catch (const core::DecisionError& error) {
    // validate_batch() mirrors every core contract check, so this
    // branch means the mirror has a gap: some events of the batch are
    // applied, the rest are not, and the core no longer matches the
    // log. Refuse further events instead of serving wrong schedules.
    poisoned_ = true;
    throw ProtocolError("internal-desync", error.what());
  }
  last_seq_ = batch.seq;
  last_now_ = batch.now;
  // Durability order: apply, log, reply. A crash after apply but
  // before the log write loses a frame the client never got a reply
  // for -- it retransmits after resume and the replayed core accepts
  // it again. The reverse order could log a frame the core rejected.
  if (!replaying && log_) log_->record_batch(batch.seq, std::string(line));
  last_reply_ = decision_reply(batch.seq, batch.now, decision);
  return last_reply_;
}

void Session::validate_batch(const EventBatch& batch) const {
  if (last_now_ != sim::kNoTime && batch.now < last_now_)
    throw ProtocolError("time-regression",
                        "batch at t=" + std::to_string(batch.now) +
                            " after t=" + std::to_string(last_now_));
  // The core refuses every event at an instant past a running job's
  // estimated end or an active outage's repair instant: the batch's
  // first hook would trip before anything applies, so the whole frame
  // goes. The client repairs it by reporting that finish or repair at
  // its instant (a finish may also come earlier).
  const workload::JobId late = core_->overdue_job(batch.now, false);
  if (late != workload::kInvalidJob)
    throw ProtocolError("overdue-finish",
                        "job " + std::to_string(late) +
                            " passed its estimated end before t=" +
                            std::to_string(batch.now) + " without a finish");
  if (const sim::Outage* outage = core_->overdue_outage(batch.now, false))
    throw ProtocolError("overdue-repair",
                        "outage " + std::to_string(outage->id) +
                            " passed its repair instant before t=" +
                            std::to_string(batch.now) + " without a repair");
  // Lifecycle overlay: the phase each job will hold once the batch's
  // earlier events apply, so intra-batch sequences (finish then cancel
  // of the same job) validate exactly as the core would apply them.
  std::map<workload::JobId, core::JobPhase> overlay;
  const auto phase_of = [&](workload::JobId id) {
    const auto it = overlay.find(id);
    return it != overlay.end() ? it->second : core_->phase(id);
  };
  // Outage overlay: repairs sort before downs, so one running tally of
  // lost capacity (seeded from the core, repairs subtracting before
  // downs add) validates exactly what the core will apply. Intra-batch
  // down-then-up of one outage is impossible by construction
  // (repair_at > the batch instant), so a set of this batch's new
  // downs plus a set of its repairs is a complete lifecycle overlay.
  int down_procs = core_->down_procs();
  int down_bb = core_->down_bb();
  std::map<sim::OutageId, bool> outage_overlay;  // true = downed here
  int last_kind = -1;
  for (const Event& event : batch.events) {
    if (static_cast<int>(event.kind) < last_kind)
      throw ProtocolError("out-of-order",
                          "events within a batch must be ordered "
                          "finish < repair < down < submit < cancel < wake");
    last_kind = static_cast<int>(event.kind);
    switch (event.kind) {
      case EventKind::kSubmit: {
        const core::Job& job = event.job;
        if (job.id >= core::kMaxTrackedJobs)
          throw ProtocolError("bad-event", "job id " +
                                               std::to_string(job.id) +
                                               " out of range");
        if (phase_of(job.id) != core::JobPhase::kUnseen)
          throw ProtocolError("bad-event", "job " + std::to_string(job.id) +
                                               " submitted twice");
        if (job.estimate < 1)
          throw ProtocolError("bad-event", "job " + std::to_string(job.id) +
                                               " has estimate < 1");
        if (job.procs > core_->machine_procs())
          throw ProtocolError("bad-event", "job " + std::to_string(job.id) +
                                               " is wider than the machine");
        if (job.bb > core_->machine_burst_buffer())
          throw ProtocolError("bad-event",
                              "job " + std::to_string(job.id) +
                                  " demands more burst buffer than the "
                                  "machine has");
        if (job.submit != batch.now)
          throw ProtocolError("bad-event",
                              "job " + std::to_string(job.id) +
                                  " carries submit != the batch instant");
        overlay[job.id] = core::JobPhase::kQueued;
        break;
      }
      case EventKind::kFinish:
        if (phase_of(event.id) != core::JobPhase::kRunning)
          throw ProtocolError("bad-event", "job " + std::to_string(event.id) +
                                               " is not running");
        overlay[event.id] = core::JobPhase::kFinished;
        break;
      case EventKind::kRepair: {
        const auto it = outage_overlay.find(event.outage.id);
        if (it != outage_overlay.end())
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(event.outage.id) +
                                  " repaired twice in one batch");
        const sim::Outage* active = core_->active_outage(event.outage.id);
        if (active == nullptr)
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(event.outage.id) +
                                  " is not active");
        if (active->repair_at != batch.now)
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(event.outage.id) +
                                  " repairs at t=" +
                                  std::to_string(active->repair_at) +
                                  ", not at this batch instant");
        down_procs -= active->procs;
        down_bb -= active->bb;
        outage_overlay[event.outage.id] = false;
        break;
      }
      case EventKind::kDown: {
        const sim::Outage& outage = event.outage;
        if (outage.id >= core::kMaxTrackedOutages)
          throw ProtocolError("bad-event",
                              "outage id " + std::to_string(outage.id) +
                                  " out of range");
        if (core_->outage_known(outage.id) ||
            outage_overlay.find(outage.id) != outage_overlay.end())
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(outage.id) +
                                  " delivered twice");
        if (outage.repair_at <= batch.now)
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(outage.id) +
                                  " repairs at-or-before its down instant");
        if (outage.procs > core_->machine_procs() - down_procs)
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(outage.id) +
                                  " takes more processors than the still-up "
                                  "machine");
        if (outage.bb > core_->machine_burst_buffer() - down_bb)
          throw ProtocolError("bad-event",
                              "outage " + std::to_string(outage.id) +
                                  " takes more burst buffer than the "
                                  "still-up machine");
        down_procs += outage.procs;
        down_bb += outage.bb;
        outage_overlay[outage.id] = true;
        break;
      }
      case EventKind::kCancel: {
        const core::JobPhase phase = phase_of(event.id);
        if (phase == core::JobPhase::kUnseen)
          throw ProtocolError("bad-event", "job " + std::to_string(event.id) +
                                               " was never submitted");
        if (phase == core::JobPhase::kCancelled)
          throw ProtocolError("bad-event", "job " + std::to_string(event.id) +
                                               " cancelled twice");
        if (phase == core::JobPhase::kQueued)
          overlay[event.id] = core::JobPhase::kCancelled;
        break;
      }
      case EventKind::kWake: break;
    }
  }
  // end_cycle also refuses a deadline that falls on the batch instant,
  // so the batch itself must carry that finish or repair. This is
  // stricter than the core in one case: a job an outage of this batch
  // kills at its estimated end. A conforming client reports that finish
  // first, since finishes precede downs.
  if (core_->overdue_job(batch.now, true) != workload::kInvalidJob)
    for (const core::RunningJob& run : core_->running_jobs())
      if (run.est_end <= batch.now &&
          phase_of(run.job.id) != core::JobPhase::kFinished)
        throw ProtocolError("overdue-finish",
                            "job " + std::to_string(run.job.id) +
                                " reaches its estimated end at t=" +
                                std::to_string(batch.now) +
                                " without a finish in this batch");
  if (core_->overdue_outage(batch.now, true) != nullptr)
    for (const sim::Outage& outage : core_->active_outages())
      if (outage.repair_at <= batch.now &&
          outage_overlay.find(outage.id) == outage_overlay.end())
        throw ProtocolError("overdue-repair",
                            "outage " + std::to_string(outage.id) +
                                " reaches its repair instant at t=" +
                                std::to_string(batch.now) +
                                " without a repair in this batch");
}

}  // namespace bfsim::svc
