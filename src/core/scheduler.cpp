#include "core/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/conservative_scheduler.hpp"
#include "core/easy_scheduler.hpp"
#include "core/fcfs_scheduler.hpp"
#include "core/kres_scheduler.hpp"
#include "core/plan_scheduler.hpp"
#include "core/selective_scheduler.hpp"
#include "core/slack_scheduler.hpp"

namespace bfsim::core {

SchedulerBase::SchedulerBase(SchedulerConfig config)
    : config_(config), free_(config.procs), free_bb_(config.burst_buffer) {
  if (config_.procs < 1)
    throw std::invalid_argument("Scheduler: machine must have >= 1 proc");
  if (config_.burst_buffer < 0)
    throw std::invalid_argument("Scheduler: burst-buffer capacity < 0");
}

bool Scheduler::job_cancelled(JobId, Time) {
  throw std::logic_error(
      "Scheduler: cancellation not supported by this implementation");
}

bool Scheduler::node_down(const sim::Outage&, Time) {
  throw std::logic_error(
      "Scheduler: node outages not supported by this implementation");
}

bool Scheduler::node_up(const sim::Outage&, Time) {
  throw std::logic_error(
      "Scheduler: node repairs not supported by this implementation");
}

bool SchedulerBase::node_down(const sim::Outage& outage, Time now) {
  // The decision core killed victims first, so the lost capacity is
  // free on both axes; going negative here means the kill set was
  // wrong, which is a driver bug, not hostile input.
  if (outage.procs > free_ || outage.bb > free_bb_)
    throw std::logic_error("Scheduler: outage exceeds free capacity");
  free_ -= outage.procs;
  free_bb_ -= outage.bb;
  const auto pos = std::upper_bound(
      outages_.begin(), outages_.end(), outage,
      [](const sim::Outage& a, const sim::Outage& b) {
        if (a.repair_at != b.repair_at) return a.repair_at < b.repair_at;
        return a.id < b.id;
      });
  outages_.insert(pos, outage);
  if (running_profile_)
    running_profile_->reserve(now, outage.repair_at, outage.procs, outage.bb);
  // Losing capacity cannot enable a start, but requeued victims arrive
  // right after this hook; let the queue state vouch for the pass.
  return !queue_.empty();
}

bool SchedulerBase::node_up(const sim::Outage& outage, Time now) {
  const auto it = std::find_if(
      outages_.begin(), outages_.end(),
      [&outage](const sim::Outage& o) { return o.id == outage.id; });
  if (it == outages_.end())
    throw std::logic_error("Scheduler: repair for an unknown outage");
  free_ += outage.procs;
  free_bb_ += outage.bb;
  outages_.erase(it);
  // The outage rectangle of the running profile ends at repair_at == now.
  (void)now;
  return !queue_.empty();
}

const MultiProfile& SchedulerBase::profile_from_running_and_outages(
    Time now) const {
  if (!running_profile_) {
    // First use: every later start, finish and outage keeps it current.
    // The running table's order is unspecified, which is fine: the
    // profile is a sum of rectangles, and sums commute.
    MultiProfile& profile =
        running_profile_.emplace(config_.procs, config_.burst_buffer);
    for (const RunningJob& rj : running_.jobs())
      if (rj.est_end > now)
        profile.reserve(now, rj.est_end, rj.job.procs, rj.job.bb);
    for (const sim::Outage& outage : outages_)
      if (outage.repair_at > now)
        profile.reserve(now, outage.repair_at, outage.procs, outage.bb);
  }
  return *running_profile_;
}

bool SchedulerBase::job_cancelled(JobId id, Time) {
  (void)take_queued(id);
  // Freed nothing *now*, but rebuild-style subclasses recompute their
  // guarantee set per pass, so a removal can unblock a backfill.
  return !queue_.empty();
}

Job SchedulerBase::commit_start(JobId id, Time now) {
  const std::size_t idx = queue_index(id);
  if (idx == queue_.size())
    throw std::logic_error("Scheduler: starting a job that is not queued");
  const Job job = queue_[idx];
  commit_start_of(job, now);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  return job;
}

void SchedulerBase::commit_start_of(const Job& job, Time now) {
  if (job.procs > free_)
    throw std::logic_error("Scheduler: start exceeds free processors");
  if (job.bb > free_bb_)
    throw std::logic_error("Scheduler: start exceeds free burst buffer");
  free_ -= job.procs;
  free_bb_ -= job.bb;
  // A hostile estimate near kTimeMax must clamp to "runs forever", not
  // wrap est_end into the past (which would corrupt every profile and
  // shadow computation built from the running set).
  const Time est_end = sim::saturating_add(now, job.estimate);
  running_.insert(job.id, RunningJob{job, now, est_end});
  if (running_profile_)
    running_profile_->reserve(now, est_end, job.procs, job.bb);
}

RunningJob SchedulerBase::commit_finish(JobId id, Time now) {
  if (!running_.contains(id))
    throw std::logic_error("Scheduler: finish for a job that is not running");
  RunningJob rj = running_.take(id);
  free_ += rj.job.procs;
  free_bb_ += rj.job.bb;
  if (running_profile_) {
    // Drop the history before `now` so the profile stays as small as the
    // running set, then hand back the unused tail of an early finish (an
    // on-time one frees nothing from `now` on).
    running_profile_->discard_before(now);
    if (now < rj.est_end)
      running_profile_->release(now, rj.est_end, rj.job.procs, rj.job.bb);
  }
  return rj;
}

Job SchedulerBase::take_queued(JobId id) {
  return take_queued_at(queue_index(id));
}

Job SchedulerBase::take_queued_at(std::size_t idx) {
  if (idx >= queue_.size())
    throw std::logic_error("Scheduler: cancelling a job that is not queued");
  const Job job = queue_[idx];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
  return job;
}

std::size_t SchedulerBase::insert_queued(const Job& job, Time now) {
  if (time_varying_priority()) {
    queue_.push_back(job);
    id_sorted_ = false;  // reordered per pass; position tells us nothing
    sorted_at_ = sim::kNoTime;
    return queue_.size() - 1;
  }
  // The priority order is total (ties broken by submit, id), so the
  // in-place position reproduces exactly what a stable sort would give.
  const PriorityOrder order{config_.priority, now};
  // Arrivals overwhelmingly sort last (FCFS order IS arrival order, and
  // the tie-breaks favor earlier submits): test the back slot before
  // paying for a binary search.
  std::size_t idx;
  if (queue_.empty() || !order(job, *(queue_.end() - 1))) {
    idx = queue_.size();
    queue_.push_back(job);
  } else {
    const Job* pos =
        std::upper_bound(queue_.begin(), queue_.end(), job, order);
    idx = static_cast<std::size_t>(pos - queue_.begin());
    queue_.insert(pos, job);
  }
  // Track whether the queue remains sorted by id (true under FCFS with
  // driver-fed traces, where id order IS submit order): only the new
  // job's two neighbors can break it. queue_index binary-searches while
  // this holds.
  if (id_sorted_ &&
      ((idx > 0 && queue_[idx - 1].id > job.id) ||
       (idx + 1 < queue_.size() && queue_[idx + 1].id < job.id)))
    id_sorted_ = false;
  return idx;
}

std::size_t SchedulerBase::ensure_sorted(Time now) {
  // Starts and cancels erase in place and arrivals append, so the queue
  // is still in the order the previous pass established.
  if (!time_varying_priority() || sorted_at_ == now) return queue_.size();
  sorted_at_ = now;
  return restore_xfactor_order(queue_.begin(), queue_.end(), now,
                               xfactor_keys_);
}

std::size_t SchedulerBase::queue_index(JobId id) const {
  // Starts overwhelmingly take the queue head (always, for the
  // non-backfilling policies): answer without a search.
  if (!queue_.empty() && queue_.front().id == id) return 0;
  if (id_sorted_) {
    const Job* it =
        std::lower_bound(queue_.begin(), queue_.end(), id,
                         [](const Job& j, JobId v) { return j.id < v; });
    return it != queue_.end() && it->id == id
               ? static_cast<std::size_t>(it - queue_.begin())
               : queue_.size();
  }
  for (std::size_t i = 0; i < queue_.size(); ++i)
    if (queue_[i].id == id) return i;
  return queue_.size();
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fcfs: return "nobackfill";
    case SchedulerKind::Easy: return "easy";
    case SchedulerKind::Conservative: return "conservative";
    case SchedulerKind::KReservation: return "kreservation";
    case SchedulerKind::Selective: return "selective";
    case SchedulerKind::Slack: return "slack";
    case SchedulerKind::Plan: return "plan";
  }
  return "?";
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  if (name == "nobackfill" || name == "fcfs") return SchedulerKind::Fcfs;
  if (name == "easy" || name == "aggressive") return SchedulerKind::Easy;
  if (name == "conservative" || name == "cons")
    return SchedulerKind::Conservative;
  if (name == "kreservation" || name == "kres")
    return SchedulerKind::KReservation;
  if (name == "selective") return SchedulerKind::Selective;
  if (name == "slack") return SchedulerKind::Slack;
  if (name == "plan") return SchedulerKind::Plan;
  throw std::invalid_argument("unknown scheduler kind '" + name + "'");
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind,
                                          const SchedulerConfig& config,
                                          const SchedulerExtras& extras) {
  switch (kind) {
    case SchedulerKind::Fcfs:
      return std::make_unique<FcfsScheduler>(config);
    case SchedulerKind::Easy:
      return std::make_unique<EasyScheduler>(config);
    case SchedulerKind::Conservative:
      return std::make_unique<ConservativeScheduler>(config);
    case SchedulerKind::KReservation:
      return std::make_unique<KReservationScheduler>(config,
                                                     extras.reservation_depth);
    case SchedulerKind::Selective:
      return std::make_unique<SelectiveScheduler>(
          config, extras.xfactor_threshold,
          extras.selective_adaptive
              ? SelectiveScheduler::Mode::AdaptiveMeanSlowdown
              : SelectiveScheduler::Mode::FixedThreshold);
    case SchedulerKind::Slack:
      return std::make_unique<SlackScheduler>(config, extras.slack_factor);
    case SchedulerKind::Plan:
      return std::make_unique<PlanScheduler>(config);
  }
  throw std::invalid_argument("make_scheduler: bad kind");
}

}  // namespace bfsim::core
