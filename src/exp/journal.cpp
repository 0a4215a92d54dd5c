#include "exp/journal.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "metrics/serialize.hpp"
#include "util/framing.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define BFSIM_HAVE_FSYNC 1
#endif

namespace bfsim::exp {

namespace {

constexpr const char* kHeader = "bfsim-journal v1";

std::string encode_values(const std::vector<double>& values) {
  std::string out;
  char buffer[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    std::snprintf(buffer, sizeof buffer, "%a", values[i]);
    out += buffer;
  }
  return out;
}

std::vector<double> decode_values(const std::string& text) {
  std::vector<double> values;
  std::istringstream in{text};
  std::string token;
  while (in >> token) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      throw util::ParseError("journal: bad value token '" + token + "'");
    values.push_back(value);
  }
  return values;
}

/// Flush `file`'s kernel buffers to stable storage; false on failure.
/// Platforms without fsync report success.
bool sync_file([[maybe_unused]] std::FILE* file) {
#ifdef BFSIM_HAVE_FSYNC
  return fsync(fileno(file)) == 0;
#else
  return true;
#endif
}

/// Body of a record line (everything before the trailing hash field).
std::string record_body(std::size_t index, const CellResult& result) {
  return "C\t" + std::to_string(index) + '\t' + util::escape_field(result.tag) + '\t' +
         util::escape_field(result.label) + '\t' + metrics::encode_metrics(result.metrics) +
         '\t' + encode_values(result.values);
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  JournalContents contents;
  std::ifstream in{path};
  if (!in) return contents;  // no journal yet: fresh run
  std::string line;
  if (!std::getline(in, line)) return contents;  // empty file: fresh run
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHeader)
    throw util::ParseError("journal: '" + path +
                           "' is not a bfsim checkpoint journal");
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // Everything after the first corrupt record is untrusted: the file
    // is append-only, so a bad line means the tail (or the file) is
    // damaged and the affected cells simply rerun.
    std::string body;
    if (!util::verify_frame(line, &body)) {
      contents.truncated = true;
      break;
    }
    const std::vector<std::string> fields = util::split_fields(body);
    if (fields.size() != 6 || fields[0] != "C") {
      contents.truncated = true;
      break;
    }
    char* end = nullptr;
    const unsigned long long index = std::strtoull(fields[1].c_str(), &end, 10);
    if (end != fields[1].c_str() + fields[1].size()) {
      contents.truncated = true;
      break;
    }
    CellResult result;
    result.tag = util::unescape_field(fields[2]);
    result.label = util::unescape_field(fields[3]);
    result.metrics = metrics::decode_metrics(fields[4]);
    result.values = decode_values(fields[5]);
    result.ok = true;
    contents.cells.insert_or_assign(static_cast<std::size_t>(index),
                                    std::move(result));
  }
  return contents;
}

struct JournalWriter::Impl {
  std::mutex mutex;
  std::FILE* file = nullptr;
  std::string path;
};

JournalWriter::JournalWriter(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->file = std::fopen(path.c_str(), "ab");
  if (impl_->file == nullptr) {
    delete impl_;
    throw std::runtime_error("journal: cannot open '" + path +
                             "' for append");
  }
  // "ab" positions at end-of-file; offset 0 means new or empty file.
  if (std::ftell(impl_->file) == 0) {
    std::fputs(kHeader, impl_->file);
    std::fputc('\n', impl_->file);
    std::fflush(impl_->file);
    if (!sync_file(impl_->file)) {
      std::fclose(impl_->file);
      delete impl_;
      throw std::runtime_error("journal: fsync failed for '" + path + "'");
    }
  }
}

JournalWriter::~JournalWriter() {
  if (impl_->file != nullptr) std::fclose(impl_->file);
  delete impl_;
}

void JournalWriter::record(std::size_t index, const CellResult& result) {
  const std::string line = util::seal_frame(record_body(index, result)) + '\n';
  const std::scoped_lock lock(impl_->mutex);
  if (std::fwrite(line.data(), 1, line.size(), impl_->file) != line.size())
    throw std::runtime_error("journal: short write to '" + impl_->path + "'");
  if (std::fflush(impl_->file) != 0)
    throw std::runtime_error("journal: flush failed for '" + impl_->path +
                             "'");
  // A cell counts as checkpointed only once its record is durable: a
  // failed sync fails the record exactly like a short write.
  if (!sync_file(impl_->file))
    throw std::runtime_error("journal: fsync failed for '" + impl_->path +
                             "'");
}

}  // namespace bfsim::exp
