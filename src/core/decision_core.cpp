#include "core/decision_core.hpp"

#include <algorithm>
#include <string>

#include "core/audit.hpp"
#include "core/priority.hpp"

namespace bfsim::core {

namespace {

std::string id_str(JobId id) { return std::to_string(id); }

/// Whether `deadline` has passed at `now`: it lies before `now`, or at
/// `now` as well when the cycle closes there (end_cycle commits starts
/// at `now`, and the schedulers free a job's processors at its estimated
/// end and an outage's capacity at its repair instant).
bool passed(Time deadline, Time now, bool closing) {
  return closing ? deadline <= now : deadline < now;
}

/// The run whose estimated end has passed at `now` (the earliest, the
/// smallest id on ties), or nullptr.
const RunningJob* overdue_run(const std::vector<RunningJob>& runs, Time now,
                              bool closing) {
  const RunningJob* late = nullptr;
  for (const RunningJob& run : runs)
    if (passed(run.est_end, now, closing) &&
        (late == nullptr || run.est_end < late->est_end ||
         (run.est_end == late->est_end && run.job.id < late->job.id)))
      late = &run;
  return late;
}

}  // namespace

DecisionCore::DecisionCore(Scheduler& scheduler, ScheduleAuditor* auditor,
                           sim::RequeuePolicy requeue)
    : scheduler_(&scheduler), auditor_(auditor), requeue_(requeue) {}

void DecisionCore::reserve_jobs(std::size_t count) {
  phases_.reserve(std::min<std::size_t>(count, kMaxTrackedJobs));
}

void DecisionCore::check_time(Time now, const char* hook, bool closing) {
  if (now < last_time_)
    throw DecisionError(std::string("DecisionCore::") + hook +
                        ": time ran backwards (" + std::to_string(now) +
                        " after " + std::to_string(last_time_) + ")");
  if (passed(due_, now, closing)) check_deadlines(now, hook, closing);
  last_time_ = now;
}

void DecisionCore::check_deadlines(Time now, const char* hook,
                                   bool closing) {
  Time due = sim::kTimeMax;
  for (const RunningJob& run : running_jobs_.jobs())
    due = std::min(due, run.est_end);
  for (const sim::Outage& outage : active_outages_)
    due = std::min(due, outage.repair_at);
  due_ = due;
  if (!passed(due, now, closing)) return;
  // A finish or repair that did not come by its instant: the schedulers
  // already plan that job's processors (or the outage's capacity) as
  // free while the machine still counts them lost, so the next start
  // would overrun it. The instant is refused before anything moves.
  const std::string at = std::string(closing ? " by" : " before") +
                         " t=" + std::to_string(now);
  if (const RunningJob* late = overdue_run(running_jobs_.jobs(), now, closing))
    throw DecisionError(std::string("DecisionCore::") + hook + ": job " +
                        id_str(late->job.id) + " reached its estimated end t=" +
                        std::to_string(late->est_end) + at +
                        " without a finish");
  const sim::Outage* outage = overdue_outage(now, closing);
  throw DecisionError(std::string("DecisionCore::") + hook + ": outage " +
                      std::to_string(outage->id) +
                      " reached its repair instant t=" +
                      std::to_string(outage->repair_at) + at +
                      " without its repair");
}

JobId DecisionCore::overdue_job(Time now, bool closing) const {
  if (!passed(due_, now, closing)) return workload::kInvalidJob;
  const RunningJob* late = overdue_run(running_jobs_.jobs(), now, closing);
  return late != nullptr ? late->job.id : workload::kInvalidJob;
}

const sim::Outage* DecisionCore::overdue_outage(Time now,
                                                bool closing) const {
  if (!passed(due_, now, closing)) return nullptr;
  const sim::Outage* late = nullptr;
  for (const sim::Outage& outage : active_outages_)
    if (passed(outage.repair_at, now, closing) &&
        (late == nullptr || outage.repair_at < late->repair_at))
      late = &outage;
  return late;
}

JobPhase DecisionCore::phase_or_grow(JobId id) {
  if (id >= kMaxTrackedJobs)
    throw DecisionError("DecisionCore: job id " + id_str(id) +
                        " out of range");
  if (id >= phases_.size()) phases_.resize(id + 1, JobPhase::kUnseen);
  return phases_[id];
}

void DecisionCore::on_submit(const Job& job, Time now) {
  check_time(now, "on_submit");
  if (job.id == workload::kInvalidJob)
    throw DecisionError("DecisionCore::on_submit: invalid job id");
  if (phase_or_grow(job.id) != JobPhase::kUnseen)
    throw DecisionError("DecisionCore::on_submit: job " + id_str(job.id) +
                        " submitted twice");
  if (job.estimate < 1 || job.procs < 1)
    throw DecisionError("DecisionCore::on_submit: malformed job " +
                        id_str(job.id));
  if (job.procs > machine_procs())
    throw DecisionError("DecisionCore::on_submit: job " + id_str(job.id) +
                        " wider than the machine");
  if (job.submit != now)
    throw DecisionError("DecisionCore::on_submit: job " + id_str(job.id) +
                        " submitted at t=" + std::to_string(now) +
                        " but carries submit=" + std::to_string(job.submit));
  phases_[job.id] = JobPhase::kQueued;
  ++stats_.events;
  ++queued_;
  if (auditor_ != nullptr) auditor_->on_submitted(job, now);
  pass_needed_ |= scheduler_->job_submitted(job, now);
}

void DecisionCore::on_finish(JobId id, Time now) {
  check_time(now, "on_finish");
  if (phase_or_grow(id) != JobPhase::kRunning)
    throw DecisionError("DecisionCore::on_finish: job " + id_str(id) +
                        " is not running");
  phases_[id] = JobPhase::kFinished;
  ++stats_.events;
  --running_;
  (void)running_jobs_.take(id);
  if (auditor_ != nullptr) auditor_->on_finished(id, now);
  pass_needed_ |= scheduler_->job_finished(id, now);
}

void DecisionCore::on_cancel(JobId id, Time now) {
  check_time(now, "on_cancel");
  const JobPhase phase = phase_or_grow(id);
  if (phase == JobPhase::kUnseen)
    throw DecisionError("DecisionCore::on_cancel: job " + id_str(id) +
                        " was never submitted");
  if (phase == JobPhase::kCancelled)
    throw DecisionError("DecisionCore::on_cancel: job " + id_str(id) +
                        " cancelled twice");
  ++stats_.events;
  if (phase == JobPhase::kQueued) {  // still waiting: withdraw for good
    phases_[id] = JobPhase::kCancelled;
    --queued_;
    if (auditor_ != nullptr) auditor_->on_cancelled(id, now);
    pass_needed_ |= scheduler_->job_cancelled(id, now);
  } else {
    // Cancelling a job that already started is a no-op for the
    // scheduler -- no hook runs. But the batch still advances the
    // clock, and clock-driven policies (XFactor ordering, selective
    // promotion) can surface a start from time alone, with no hook to
    // vouch that a pass is unnecessary. Run one.
    pass_needed_ = true;
  }
}

void DecisionCore::on_wake(Time now) {
  check_time(now, "on_wake");
  // The timer carries no payload; end_cycle asks the scheduler whether
  // its earliest reservation is in fact due now (it may have moved
  // since the timer was armed -- a stale wake is a no-op).
  ++stats_.wakeups;
}

Time DecisionCore::outage_repair_at(sim::OutageId id) const {
  const sim::Outage* outage = active_outage(id);
  return outage != nullptr ? outage->repair_at : sim::kNoTime;
}

const sim::Outage* DecisionCore::active_outage(sim::OutageId id) const {
  for (const sim::Outage& outage : active_outages_)
    if (outage.id == id) return &outage;
  return nullptr;
}

void DecisionCore::on_node_down(const sim::Outage& outage, Time now) {
  check_time(now, "on_node_down");
  // Pre-mutation validation: every check runs before the first kill so
  // a rejected outage leaves the whole core untouched and serviceable.
  const std::string tag = std::to_string(outage.id);
  if (outage.id >= kMaxTrackedOutages)
    throw DecisionError("DecisionCore::on_node_down: outage id " + tag +
                        " out of range");
  if (outage_known(outage.id))
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " delivered twice");
  if (outage.down_at != now)
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " delivered at t=" + std::to_string(now) +
                        " but carries down_at=" +
                        std::to_string(outage.down_at));
  if (outage.repair_at <= now)
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " repairs at-or-before its down instant");
  if (outage.procs < 0 || outage.bb < 0 || outage.procs + outage.bb < 1)
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " has malformed losses");
  if (outage.procs > machine_procs() - down_procs_)
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " takes more processors than the still-up machine");
  if (outage.bb > machine_burst_buffer() - down_bb_)
    throw DecisionError("DecisionCore::on_node_down: outage " + tag +
                        " takes more burst buffer than the still-up machine");

  if (killed_consumed_) {
    killed_ids_.clear();
    killed_consumed_ = false;
  }

  // Victim selection: the outage's demand must be free on both axes
  // before the scheduler learns of it. Deterministic order -- latest
  // start first (the least sunk work), larger id first on ties --
  // skipping jobs that contribute to no remaining deficit, so a
  // bb-only outage never kills a no-bb job.
  int busy_procs = 0;
  int busy_bb = 0;
  for (const RunningJob& rj : running_jobs_.jobs()) {
    busy_procs += rj.job.procs;
    busy_bb += rj.job.bb;
  }
  int need_procs = outage.procs - (machine_procs() - down_procs_ - busy_procs);
  int need_bb =
      outage.bb - (machine_burst_buffer() - down_bb_ - busy_bb);
  victim_scratch_.clear();
  if (need_procs > 0 || need_bb > 0) {
    victim_scratch_ = running_jobs_.jobs();
    std::sort(victim_scratch_.begin(), victim_scratch_.end(),
              [](const RunningJob& a, const RunningJob& b) {
                if (a.start != b.start) return a.start > b.start;
                return a.job.id > b.job.id;
              });
  }
  requeue_scratch_.clear();
  for (const RunningJob& victim : victim_scratch_) {
    if (need_procs <= 0 && need_bb <= 0) break;
    const bool helps = (need_procs > 0 && victim.job.procs > 0) ||
                       (need_bb > 0 && victim.job.bb > 0);
    if (!helps) continue;
    need_procs -= victim.job.procs;
    need_bb -= victim.job.bb;
    const JobId id = victim.job.id;
    if (auditor_ != nullptr) auditor_->on_killed(id, now);
    pass_needed_ |= scheduler_->job_killed(id, now);
    const RunningJob taken = running_jobs_.take(id);
    --running_;
    killed_ids_.push_back(id);
    ++stats_.kills;
    // The resubmitted job keeps its ORIGINAL submit time -- priority
    // ties replay exactly as before the outage -- while the estimate
    // follows the session's requeue policy.
    Job requeued = taken.job;
    if (requeue_ == sim::RequeuePolicy::kResubmitRemaining) {
      const Time elapsed = sim::saturating_sub(now, taken.start);
      requeued.estimate =
          std::max<Time>(1, sim::saturating_sub(requeued.estimate, elapsed));
    }
    requeue_scratch_.push_back(requeued);
  }
  // `need` always clears: the validated losses fit the still-up machine,
  // so killing every running job frees at least the demand on each axis.

  if (outage.id >= outage_phases_.size())
    outage_phases_.resize(outage.id + 1, 0);
  outage_phases_[outage.id] = 1;
  active_outages_.push_back(outage);
  due_ = std::min(due_, outage.repair_at);
  down_procs_ += outage.procs;
  down_bb_ += outage.bb;
  ++stats_.outages;
  if (auditor_ != nullptr) auditor_->on_node_down(outage, now);
  pass_needed_ |= scheduler_->node_down(outage, now);

  // Re-enter the queue in current priority order so clock-dependent
  // policies (xfactor) see the victims in the same relative order a
  // fresh sort at `now` would produce.
  sort_by_priority(requeue_scratch_, scheduler_->config().priority, now);
  for (const Job& requeued : requeue_scratch_) {
    phases_[requeued.id] = JobPhase::kQueued;
    ++queued_;
    if (auditor_ != nullptr) auditor_->on_requeued(requeued, now);
    pass_needed_ |= scheduler_->job_submitted(requeued, now);
  }
}

void DecisionCore::on_node_up(sim::OutageId id, Time now) {
  check_time(now, "on_node_up");
  auto it = std::find_if(active_outages_.begin(), active_outages_.end(),
                         [id](const sim::Outage& o) { return o.id == id; });
  if (it == active_outages_.end())
    throw DecisionError("DecisionCore::on_node_up: outage " +
                        std::to_string(id) + " is not active");
  if (it->repair_at != now)
    throw DecisionError("DecisionCore::on_node_up: outage " +
                        std::to_string(id) + " repairs at t=" +
                        std::to_string(it->repair_at) + ", not t=" +
                        std::to_string(now));
  const sim::Outage outage = *it;
  active_outages_.erase(it);
  outage_phases_[id] = 2;
  down_procs_ -= outage.procs;
  down_bb_ -= outage.bb;
  ++stats_.repairs;
  if (auditor_ != nullptr) auditor_->on_node_up(outage, now);
  pass_needed_ |= scheduler_->node_up(outage, now);
}

CycleDecision DecisionCore::end_cycle(Time now) {
  check_time(now, "end_cycle", /*closing=*/true);
  if (killed_consumed_) {
    // The previous cycle's killed span was handed out and this batch
    // produced no fresh kills (on_node_down would have dropped it).
    killed_ids_.clear();
    killed_consumed_ = false;
  }
  start_ids_.clear();
  Time wake = sim::kNoTime;
  bool ran = false;
  const auto run_pass = [&] {
    ++stats_.passes;
    ran = true;
    starts_.clear();
    scheduler_->select_starts(now, starts_);
    queued_ -= starts_.size();
    running_ += starts_.size();
    for (const Job& started : starts_) {
      if (auditor_ != nullptr) auditor_->on_started(started, now);
      // Scheduler-side invariant, not an input error: a committed start
      // of a job that is not queued means the policy itself broke, so
      // this is fatal (plain logic_error), unlike the pre-mutation
      // DecisionError contract checks.
      if (started.id >= phases_.size() ||
          phases_[started.id] != JobPhase::kQueued)
        throw std::logic_error("DecisionCore: job " + id_str(started.id) +
                               " started twice");
      phases_[started.id] = JobPhase::kRunning;
      const Time end = sim::saturating_add(now, started.estimate);
      running_jobs_.insert(started.id, RunningJob{started, now, end});
      due_ = std::min(due_, end);
      start_ids_.push_back(started.id);
    }
  };
  if (pass_needed_) {
    // A hook already vouched for the pass; only the post-pass wake-up
    // matters (asking before would waste a query on a stale answer).
    run_pass();
    wake = scheduler_->next_wakeup();
  } else if ((wake = scheduler_->next_wakeup()) == now) {
    run_pass();
    wake = scheduler_->next_wakeup();
  } else {
    ++stats_.passes_skipped;
  }
  pass_needed_ = false;
  if (auditor_ != nullptr) auditor_->on_cycle_end(now);
  stats_.max_queue = std::max(stats_.max_queue, queued_);
  if (wake != sim::kNoTime && wake <= now)
    throw std::logic_error(
        "DecisionCore: scheduler reported an overdue wake-up at t=" +
        std::to_string(now));
  killed_consumed_ = true;
  return CycleDecision{
      .starts = std::span<const JobId>(start_ids_),
      .killed = std::span<const JobId>(killed_ids_),
      .next_wakeup = wake,
      .pass_ran = ran,
  };
}

}  // namespace bfsim::core
