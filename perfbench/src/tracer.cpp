#include "tracer.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::id(const std::string& name) {
  for (std::size_t i = 0; i < totals_.size(); ++i)
    if (totals_[i].name == name) return static_cast<int>(i);
  totals_.push_back({name, 0, 0.0, 0.0});
  return static_cast<int>(totals_.size() - 1);
}

void Tracer::close() {
  const Open span = stack_.back();
  stack_.pop_back();
  const Clock::duration elapsed = Clock::now() - span.start;
  Total& total = totals_[span.name];
  ++total.count;
  total.total_s += std::chrono::duration<double>(elapsed).count();
  total.self_s +=
      std::chrono::duration<double>(elapsed - span.children).count();
  if (!stack_.empty()) stack_.back().children += elapsed;
}

void Tracer::reset() {
  if (!stack_.empty()) throw std::logic_error("Tracer::reset inside a span");
  for (Total& total : totals_) total = {total.name, 0, 0.0, 0.0};
}

void write_spans(const std::string& path, const std::string& scope,
                 const Tracer& tracer) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return;  // spans are a by-product, never a failure
  for (const Tracer::Total& total : tracer.totals())
    std::fprintf(file,
                 "{\"scope\":\"%s\",\"span\":\"%s\",\"count\":%llu,"
                 "\"total_s\":%.9g,\"self_s\":%.9g}\n",
                 scope.c_str(), total.name.c_str(),
                 static_cast<unsigned long long>(total.count), total.total_s,
                 total.self_s);
  std::fclose(file);
}

}  // namespace perfbench
