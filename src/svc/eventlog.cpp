#include "svc/eventlog.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/error.hpp"
#include "util/framing.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define BFSIM_HAVE_FSYNC 1
#endif

namespace bfsim::svc {

namespace {

constexpr const char* kHeader = "bfsim-eventlog v1";

}  // namespace

EventLogContents read_event_log(const std::string& path) {
  EventLogContents contents;
  std::ifstream in{path};
  if (!in) return contents;  // no log yet: fresh daemon
  std::string line;
  if (!std::getline(in, line)) return contents;  // empty file: fresh daemon
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHeader)
    throw util::ParseError("eventlog: '" + path +
                           "' is not a bfsim event log");
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // Append-only file: the first bad checksum marks the torn tail and
    // everything after it is untrusted.
    std::string body;
    if (!util::verify_frame(line, &body)) {
      contents.truncated = true;
      break;
    }
    const std::vector<std::string> fields = util::split_fields(body);
    if (fields.size() == 2 && fields[0] == "H") {
      contents.hello = util::unescape_field(fields[1]);
      continue;
    }
    if (fields.size() == 3 && fields[0] == "E") {
      char* end = nullptr;
      const unsigned long long seq = std::strtoull(fields[1].c_str(), &end, 10);
      if (end != fields[1].c_str() + fields[1].size()) {
        contents.truncated = true;
        break;
      }
      contents.frames.emplace_back(static_cast<std::uint64_t>(seq),
                                   util::unescape_field(fields[2]));
      continue;
    }
    contents.truncated = true;
    break;
  }
  return contents;
}

EventLogWriter::EventLogWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr)
    throw std::runtime_error("eventlog: cannot open '" + path +
                             "' for append");
  // "ab" positions at end-of-file; offset 0 means new or empty file.
  if (std::ftell(file_) == 0) {
    try {
      append_line(kHeader);
    } catch (...) {
      std::fclose(file_);  // the destructor does not run for a throwing ctor
      throw;
    }
  }
}

EventLogWriter::~EventLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void EventLogWriter::append_line(const std::string& body) {
  const std::string line = body + '\n';
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size())
    throw std::runtime_error("eventlog: short write to '" + path_ + "'");
  if (std::fflush(file_) != 0)
    throw std::runtime_error("eventlog: flush failed for '" + path_ + "'");
#ifdef BFSIM_HAVE_FSYNC
  // A frame is acked only once its line is durable: a failed sync fails
  // the frame exactly like a short write.
  if (fsync(fileno(file_)) != 0)
    throw std::runtime_error("eventlog: fsync failed for '" + path_ + "'");
#endif
}

void EventLogWriter::record_hello(const std::string& frame) {
  append_line(util::seal_frame("H\t" + util::escape_field(frame)));
}

void EventLogWriter::record_batch(std::uint64_t seq, const std::string& frame) {
  append_line(util::seal_frame("E\t" + std::to_string(seq) + '\t' +
                               util::escape_field(frame)));
}

}  // namespace bfsim::svc
