// perfbench -- the traced run's span recorder.
//
// Spans wrap the benchmark's own calls into the program's public
// functions; nothing inside src/ is instrumented. A replay makes
// millions of calls, so spans are folded into per-name totals as they
// close: count, total time, and self time (the span's time minus the
// time of the spans opened inside it). Single-threaded by design: each
// traced replay owns one Tracer; the parallel grid records its per-cell
// timings in the cells' own results instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Total {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Id of the span name `name`, registering it on first use.
  [[nodiscard]] int id(const std::string& name);

  void open(int name) { stack_.push_back({name, Clock::now(), {}}); }
  void close();

  [[nodiscard]] const Total& total(int name) const { return totals_[name]; }
  [[nodiscard]] const std::vector<Total>& totals() const { return totals_; }

  /// Forget all recorded time, keeping the registered names.
  void reset();

 private:
  struct Open {
    int name;
    Clock::time_point start;
    Clock::duration children;
  };
  std::vector<Total> totals_;
  std::vector<Open> stack_;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, int name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Append the folded spans of one traced replay, as one JSON object per
/// line, to `path` (called when the replay ends; main() starts each
/// traced run with a fresh file).
void write_spans(const std::string& path, const std::string& scope,
                 const Tracer& tracer);

}  // namespace perfbench
