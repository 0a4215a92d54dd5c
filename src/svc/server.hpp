// bfsim -- the line-oriented connection server.
//
// serve_connection() pumps one established byte stream (a socket or a
// pipe pair) through one Session on the calling thread: it reads a
// chunk, splits it into frame lines, hands each line to the session and
// writes the reply before it reads again. Reading only when ready to
// serve is the backpressure: a client that floods the daemon fills the
// kernel socket buffer and its writes stall, while the daemon holds one
// read chunk and one partial line. A line longer than kMaxFrameBytes is
// kept only up to kMaxFrameBytes + 1 bytes and its tail is discarded as
// it streams in; the session rejects the truncated line as
// "oversized-frame", so a client streaming gigabytes of garbage costs
// one bounded buffer, not the heap.
#pragma once

#include <cstdint>
#include <string_view>

#include "svc/session.hpp"

namespace bfsim::svc {

struct ServeResult {
  std::uint64_t lines = 0;    ///< frames handled (including rejected)
  bool clean_bye = false;     ///< the client said goodbye before EOF
};

/// Serve one connection until `bye`, EOF or a failed write. `in_fd` and
/// `out_fd` may be the same descriptor (a socket) or a pipe pair. The
/// descriptors are not closed.
ServeResult serve_connection(int in_fd, int out_fd, Session& session);

/// Writes whole byte strings to one descriptor, riding out partial
/// writes and EINTR. A socket is written with send(2) and MSG_NOSIGNAL
/// (where the platform defines it), so a peer that hung up fails the
/// write with EPIPE instead of raising a SIGPIPE that kills the
/// process. Any other descriptor falls back to write(2) after the first
/// ENOTSOCK; a process writing to pipes ignores SIGPIPE itself.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}

  /// Write all of `bytes`; false when the peer is gone.
  [[nodiscard]] bool write_all(std::string_view bytes);

 private:
  int fd_;
  bool socket_ = true;  ///< cleared once send(2) reports ENOTSOCK
};

}  // namespace bfsim::svc
