// perfbench -- the served_replay workload.
//
// Closed loop: one client on one Unix-socket connection to the daemon's
// transport (svc::serve_connection on a Session, as bfsim_served runs
// it), replaying CTC traces with 10% cancellations and a seeded failure
// trace through conservative/FCFS, with no event log. A run serves four
// 5k-job traces, each from its own seed and in its own session, so that
// 20k jobs are served and one trace's frame count does not decide the
// figures. The daemon hosts one sequenced session, so its load is closed-loop by
// construction: the next frame leaves when the previous reply arrives.
// This is the only workload that pushes cancels, outages and
// kill-requeue through the decision core.
//
// The traced run wraps the socket channel in a timing LineChannel that
// records every request and reply line of the first trace's session,
// then replays those lines in-process through a fresh Session, the
// protocol codec, a bare DecisionCore and an EventLogWriter to split the
// frame time by layer.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/decision_core.hpp"
#include "core/simulation.hpp"
#include "core/validator.hpp"
#include "exp/scenario.hpp"
#include "metrics/aggregate.hpp"
#include "sim/failure.hpp"
#include "sim/rng.hpp"
#include "svc/client.hpp"
#include "svc/eventlog.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"
#include "tracer.hpp"
#include "workload/transforms.hpp"

namespace perfbench {
namespace {

namespace core = bfsim::core;
namespace svc = bfsim::svc;

constexpr std::size_t kJobs = 5000;
constexpr std::size_t kTraces = 4;
constexpr std::size_t kWarmJobs = 2000;
constexpr double kCancelFraction = 0.10;
/// Event-log appends timed in the traced run: each one fsyncs, so the
/// sample is capped to keep the run short.
constexpr std::size_t kLogAppends = 2000;

/// The listening end of the daemon: one Unix socket, one session per
/// accepted connection, each served on its own thread.
class Daemon {
 public:
  /// Listen on `path`.
  explicit Daemon(std::string path) : path_(std::move(path)) {
    listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (listener_ < 0 || path_.size() >= sizeof address.sun_path)
      throw std::runtime_error("served_replay: cannot create socket " + path_);
    std::copy(path_.begin(), path_.end(), address.sun_path);
    ::unlink(path_.c_str());
    if (::bind(listener_, reinterpret_cast<const sockaddr*>(&address),
               sizeof address) < 0 ||
        ::listen(listener_, 1) < 0) {
      ::close(listener_);
      throw std::runtime_error("served_replay: cannot listen on " + path_);
    }
  }
  ~Daemon() {
    if (server_.joinable()) {
      ::shutdown(listener_, SHUT_RDWR);
      server_.join();
    }
    ::close(listener_);
    ::unlink(path_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serve the next connection on a thread, as bfsim_served serves it,
  /// with the session's threads on the CPUs in `cpus`.
  void start(const cpu_set_t& cpus) {
    report_ = {};
    server_ = std::thread([this, cpus] {
      // serve_connection's reader thread inherits this affinity.
      (void)sched_setaffinity(0, sizeof cpus, &cpus);
      const int connection = ::accept(listener_, nullptr, nullptr);
      if (connection < 0) return;
      svc::Session session;
      (void)svc::serve_connection(connection, connection, session);
      report_ = session.report();
      ::close(connection);
    });
  }

  /// Wait for the served session to end; returns its quarantine report.
  const svc::ProtocolReport& join() {
    if (server_.joinable()) server_.join();
    return report_;
  }

  [[nodiscard]] int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::copy(path_.begin(), path_.end(), address.sun_path);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                             sizeof address) == 0)
      return fd;
    if (fd >= 0) ::close(fd);
    // Unblock the accept so join() returns.
    ::shutdown(listener_, SHUT_RDWR);
    return -1;
  }

 private:
  std::string path_;
  int listener_ = -1;
  std::thread server_;
  svc::ProtocolReport report_;
};

/// Times every round trip (as the client sees it) and, when recording,
/// keeps each request and reply line for the in-process replays.
class TimingChannel final : public svc::LineChannel {
 public:
  TimingChannel(svc::LineChannel& inner, bool record, Tracer* tracer)
      : inner_(inner),
        record_(record),
        tracer_(tracer),
        span_(tracer != nullptr ? tracer->id("svc.roundtrip") : 0) {}

  [[nodiscard]] std::string roundtrip(const std::string& line) override {
    const Clock::time_point start = Clock::now();
    std::string reply;
    {
      const Span span{tracer_, span_};
      reply = inner_.roundtrip(line);
    }
    frame_us_.push_back(seconds_since(start) * 1e6);
    request_bytes_ += line.size();
    reply_bytes_ += reply.size();
    if (record_) {
      requests_.push_back(line);
      replies_.push_back(reply);
    }
    return reply;
  }

  [[nodiscard]] const std::vector<double>& frame_us() const {
    return frame_us_;
  }
  [[nodiscard]] std::size_t request_bytes() const { return request_bytes_; }
  [[nodiscard]] std::size_t reply_bytes() const { return reply_bytes_; }
  [[nodiscard]] const std::vector<std::string>& requests() const {
    return requests_;
  }
  [[nodiscard]] const std::vector<std::string>& replies() const {
    return replies_;
  }

 private:
  svc::LineChannel& inner_;
  bool record_;
  Tracer* tracer_;
  int span_;
  std::vector<double> frame_us_;
  std::size_t request_bytes_ = 0;
  std::size_t reply_bytes_ = 0;
  std::vector<std::string> requests_;
  std::vector<std::string> replies_;
};

struct Inputs {
  core::Trace trace;
  bfsim::sim::FailureTrace failures;
  svc::HelloRequest hello;
};

Inputs build_inputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.trace = ctc_trace(kJobs, seed);
  // Seed offset keeps the cancellation draws independent of the
  // generator's stream (the convention bfsim_replay --cancel follows).
  bfsim::sim::Rng rng{seed + 0x9e3779b9ULL};
  bfsim::workload::apply_cancellations(inputs.trace, kCancelFraction, 2.0, rng);
  const int procs = bfsim::exp::machine_procs(bfsim::exp::TraceKind::Ctc);
  bfsim::sim::FailureModel model;
  model.mean_uptime = 18.0 * static_cast<double>(bfsim::sim::kHour);
  model.mean_repair = 1.0 * static_cast<double>(bfsim::sim::kHour);
  model.max_procs_lost = procs / 32;
  model.horizon = inputs.trace.back().submit;
  inputs.failures =
      bfsim::sim::generate_failures(model, procs, 0, seed * 31 + 7);
  inputs.hello.kind = core::SchedulerKind::Conservative;
  inputs.hello.config.procs = procs;
  inputs.hello.config.priority = core::PriorityPolicy::Fcfs;
  return inputs;
}

/// What one closed-loop session did: connect, replay the whole trace,
/// say bye.
struct Served {
  core::SimulationResult result;
  double wall_s = 0.0;
  std::uint64_t rejected = 0;
  bool ok = false;
  std::vector<double> frame_us;
  std::size_t request_bytes = 0;
  std::size_t reply_bytes = 0;
  std::vector<std::string> requests;
  std::vector<std::string> replies;
};

/// Serve `inputs` in one session whose client and daemon threads all run
/// on `cpu`.
Served serve(Daemon& daemon, const Inputs& inputs, bool record,
             Tracer* tracer, int cpu) {
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(cpu, &one_cpu);
  (void)sched_setaffinity(0, sizeof one_cpu, &one_cpu);
  Served out;
  daemon.start(one_cpu);
  const int fd = daemon.connect();
  try {
    if (fd < 0) throw std::runtime_error("served_replay: cannot connect");
    svc::FdChannel socket{fd, fd};
    TimingChannel timing{socket, record, tracer};
    const Clock::time_point start = Clock::now();
    {
      const Span span{tracer, tracer ? tracer->id("svc.served_run") : 0};
      out.result = svc::served_run(inputs.trace, timing, inputs.hello,
                                   &inputs.failures);
    }
    out.wall_s = seconds_since(start);
    out.ok = true;
    out.frame_us = timing.frame_us();
    out.request_bytes = timing.request_bytes();
    out.reply_bytes = timing.reply_bytes();
    out.requests = timing.requests();
    out.replies = timing.replies();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: served_replay: %s\n", error.what());
  }
  if (fd >= 0) ::close(fd);
  out.rejected = daemon.join().rejected;
  return out;
}

/// Account one served session: every frame is an attempted operation;
/// rejected frames fail, and a schedule that diverges from the
/// in-process engine fails every frame of the session.
void account(const Served& run, const core::SimulationResult& reference,
             Report& report) {
  const std::uint64_t frames = std::max<std::uint64_t>(1, run.frame_us.size());
  const bool same = run.ok && identical(run.result, reference);
  report.count(frames, same ? run.rejected : frames,
               "served_replay frames (rejected " +
                   std::to_string(run.rejected) +
                   (same ? ")" : ", schedule diverges from run_simulation)"));
}

}  // namespace

void run_served_replay(const Args& args, Report& report) {
  // A session's client and daemon threads share one CPU, so a frame
  // hands over between threads without a cross-CPU wake-up. On a shared
  // host such a wake-up costs whatever the hypervisor takes to resume an
  // idle virtual CPU at the time: with the two on separate CPUs, whole
  // runs took 1.3 or 1.8 s depending on when they ran. The timed rounds
  // move from CPU to CPU, so that one CPU slowed by its host neighbours
  // for minutes does not set every session's time.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  (void)sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.empty()) cpus.push_back(std::max(0, sched_getcpu()));

  const std::string socket_path =
      args.out_dir + "/served-" + std::to_string(::getpid()) + ".sock";
  std::vector<Inputs> all_inputs;
  std::optional<Daemon> daemon;
  double build_s = 0.0;
  // Set-up: build the traces and failure traces, open the daemon's
  // socket, and warm the transport with one short session.
  const double setup_s = timed_setup(kSetups, [&] {
    daemon.reset();
    const Clock::time_point start = Clock::now();
    all_inputs.clear();
    for (std::size_t t = 0; t < kTraces; ++t)
      all_inputs.push_back(build_inputs(args.seed * 1000 + t));
    build_s = seconds_since(start);
    daemon.emplace(socket_path);
    const Inputs& first = all_inputs.front();
    const core::Trace warm(first.trace.begin(),
                           first.trace.begin() + kWarmJobs);
    Inputs warm_inputs{warm, {}, first.hello};
    (void)serve(*daemon, warm_inputs, false, nullptr, cpus.front());
  });

  std::vector<core::SimulationResult> references;
  for (const Inputs& inputs : all_inputs) {
    core::SimulationOptions options;
    options.failures = &inputs.failures;
    references.push_back(core::run_simulation(
        inputs.trace, inputs.hello.kind, inputs.hello.config,
        inputs.hello.extras, options));
    std::fprintf(stderr,
                 "  %zu jobs, %zu cancelled, %llu outages, %llu kills\n",
                 inputs.trace.size(),
                 static_cast<std::size_t>(std::count_if(
                     inputs.trace.begin(), inputs.trace.end(),
                     [](const core::Job& job) {
                       return job.cancel_at != bfsim::sim::kNoTime;
                     })),
                 static_cast<unsigned long long>(references.back().outages),
                 static_cast<unsigned long long>(references.back().kills));
  }

  if (!args.trace) {
    // Each trace's session is one unit of fastest_times; the figures sum
    // the fastest session of every trace. Round r runs on cpus[r % n].
    std::size_t sessions = 0;
    const Fastest fastest =
        fastest_times(kTraces, args.seconds, [&](std::size_t t) {
          const int cpu = cpus[(sessions++ / kTraces) % cpus.size()];
          const Served run =
              serve(*daemon, all_inputs[t], false, nullptr, cpu);
          account(run, references[t], report);
          if (!run.ok) return -1.0;
          return run.wall_s;
        });
    if (fastest.seconds.empty()) return;
    double wall_s = 0.0, events = 0.0;
    for (std::size_t t = 0; t < kTraces; ++t) {
      wall_s += fastest.seconds[t];
      events += static_cast<double>(references[t].events);
    }
    std::fprintf(stderr, "  %zu traces of %zu jobs, %zu rounds\n", kTraces,
                 kJobs, fastest.rounds);
    report.set("setup_s", setup_s, "s");
    report.set("wall_s", wall_s, "s");
    report.set("eps_geomean", events / wall_s, "events/s");
    return;
  }
  const Inputs& inputs = all_inputs.front();
  const core::SimulationResult& reference = references.front();

  // Traced run. Untraced sessions give the client-observed frame times;
  // a recorded session gives the lines the in-process replays reuse.
  std::vector<double> frame_us, untraced_walls;
  Served untraced;
  for (int i = 0; i < 3; ++i) {
    untraced = serve(*daemon, inputs, false, nullptr, cpus.front());
    account(untraced, reference, report);
    untraced_walls.push_back(untraced.wall_s);
    frame_us.insert(frame_us.end(), untraced.frame_us.begin(),
                    untraced.frame_us.end());
  }
  Tracer tracer;
  const Served traced = serve(*daemon, inputs, true, &tracer, cpus.front());
  account(traced, reference, report);
  if (!traced.ok) return;
  const core::SimulationResult& result = traced.result;
  report.check(traced.frame_us.size() == untraced.frame_us.size() &&
                   traced.request_bytes == untraced.request_bytes &&
                   traced.reply_bytes == untraced.reply_bytes,
               "frames and bytes equal between traced and untraced runs");
  report.check(core::validate_schedule(inputs.trace, result.outcomes,
                                       inputs.hello.config.procs)
                   .ok(),
               "served schedule passes validate_schedule");

  // Session layer: the recorded request lines through a fresh Session
  // in-process must reproduce the recorded replies byte for byte.
  std::vector<double> session_us;
  {
    const int span = tracer.id("svc.handle_line");
    svc::Session session;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < traced.requests.size(); ++i) {
      const Clock::time_point start = Clock::now();
      std::string reply;
      {
        const Span timed{&tracer, span};
        reply = session.handle_line(traced.requests[i]);
      }
      session_us.push_back(seconds_since(start) * 1e6);
      if (reply != traced.replies[i]) ++mismatches;
    }
    report.count(traced.requests.size(), mismatches,
                 "in-process Session replies equal the served replies");
  }

  // Codec and decision core on the events frames alone.
  std::vector<double> codec_us, decision_us, append_us;
  {
    const int codec_span = tracer.id("svc.codec");
    const int decision_span = tracer.id("core.decision");
    const int log_span = tracer.id("svc.eventlog.record_batch");
    const auto scheduler = core::make_scheduler(
        inputs.hello.kind, inputs.hello.config, inputs.hello.extras);
    core::DecisionCore decision{*scheduler, nullptr, inputs.hello.requeue};
    decision.reserve_jobs(inputs.trace.size());
    const std::string log_path =
        args.out_dir + "/eventlog-" + std::to_string(::getpid()) + ".log";
    std::remove(log_path.c_str());
    std::optional<svc::EventLogWriter> log;
    log.emplace(log_path);
    log->record_hello(traced.requests.front());
    std::vector<bfsim::workload::JobId> starts, kills;
    std::size_t codec_bad = 0, decision_bad = 0, frames = 0;
    for (std::size_t i = 0; i < traced.requests.size(); ++i) {
      const std::string& line = traced.requests[i];
      if (line.find("\"type\":\"events\"") == std::string::npos) continue;
      ++frames;
      Clock::time_point start = Clock::now();
      svc::Request request;
      std::string reencoded;
      core::CycleDecision parsed;
      {
        const Span timed{&tracer, codec_span};
        request = svc::parse_request(line);
        parsed = svc::parse_decision_reply(traced.replies[i], request.batch.seq,
                                           starts, kills);
        reencoded = svc::decision_reply(request.batch.seq, request.batch.now,
                                        parsed);
      }
      codec_us.push_back(seconds_since(start) * 1e6);
      if (reencoded != traced.replies[i]) ++codec_bad;

      const svc::EventBatch& batch = request.batch;
      start = Clock::now();
      core::CycleDecision made;
      {
        const Span timed{&tracer, decision_span};
        for (const svc::Event& event : batch.events) {
          switch (event.kind) {
            case svc::EventKind::kFinish:
              decision.on_finish(event.id, batch.now);
              break;
            case svc::EventKind::kRepair:
              decision.on_node_up(event.outage.id, batch.now);
              break;
            case svc::EventKind::kDown: {
              bfsim::sim::Outage outage = event.outage;
              outage.down_at = batch.now;
              decision.on_node_down(outage, batch.now);
              break;
            }
            case svc::EventKind::kSubmit:
              decision.on_submit(event.job, batch.now);
              break;
            case svc::EventKind::kCancel:
              decision.on_cancel(event.id, batch.now);
              break;
            case svc::EventKind::kWake:
              decision.on_wake(batch.now);
              break;
          }
        }
        made = decision.end_cycle(batch.now);
      }
      decision_us.push_back(seconds_since(start) * 1e6);
      if (svc::decision_reply(batch.seq, batch.now, made) != traced.replies[i])
        ++decision_bad;

      if (append_us.size() < kLogAppends) {
        start = Clock::now();
        {
          const Span timed{&tracer, log_span};
          log->record_batch(batch.seq, line);
        }
        append_us.push_back(seconds_since(start) * 1e6);
      }
    }
    log.reset();
    std::remove(log_path.c_str());
    report.count(frames, codec_bad,
                 "codec round trip reproduces the served replies");
    report.count(frames, decision_bad,
                 "in-process DecisionCore reproduces the served decisions");
  }
  write_spans(args.out_dir + "/spans-served_replay.jsonl", "served_replay",
              tracer);

  const Clock::time_point metrics_start = Clock::now();
  (void)bfsim::metrics::compute_metrics(result, inputs.hello.config.procs);
  const double metrics_s = seconds_since(metrics_start);

  const double frame_p50 = median(frame_us);
  const double session_p50 = median(session_us);
  report.set("svc.frame_p50_us", frame_p50, "us");
  report.set("svc.frame_p99_us", quantile(frame_us, 0.99), "us");
  report.set("svc.session_us", session_p50, "us");
  report.set("svc.codec_us", median(codec_us), "us");
  report.set("svc.transport_us", frame_p50 - session_p50, "us");
  report.set("core.decision_us", median(decision_us), "us");
  report.set("svc.eventlog_append_p50_us", median(append_us), "us");
  report.set("svc.eventlog_append_p99_us", quantile(append_us, 0.99), "us");
  report.set("svc.frames", static_cast<double>(traced.requests.size()),
             "count");
  report.set("svc.request_bytes", static_cast<double>(traced.request_bytes),
             "count");
  report.set("svc.reply_bytes", static_cast<double>(traced.reply_bytes),
             "count");
  report.set("svc.rejected", static_cast<double>(traced.rejected),
             "count");
  report.set("core.kills", static_cast<double>(result.kills), "count");
  report.set("core.events", static_cast<double>(result.events), "count");
  report.set("core.passes", static_cast<double>(result.passes), "count");
  report.set("core.passes_skipped", static_cast<double>(result.passes_skipped),
             "count");
  report.set("workload.build_s", build_s, "s");
  report.set("metrics.compute_s", metrics_s, "s");
  report.set("trace_overhead", traced.wall_s / median(untraced_walls),
             "ratio");
}

}  // namespace perfbench
