#include "svc/server.hpp"

#include <cerrno>
#include <string>

#include "svc/protocol.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace bfsim::svc {

bool FdWriter::write_all(std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const char* data = bytes.data() + done;
    const std::size_t size = bytes.size() - done;
    ssize_t wrote = -1;
#ifdef MSG_NOSIGNAL
    if (socket_) {
      wrote = ::send(fd_, data, size, MSG_NOSIGNAL);
      if (wrote < 0 && errno == ENOTSOCK) {
        socket_ = false;
        continue;
      }
    } else {
      wrote = ::write(fd_, data, size);
    }
#else
    wrote = ::write(fd_, data, size);
#endif
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(wrote);
  }
  return true;
}

ServeResult serve_connection(int in_fd, int out_fd, Session& session) {
  ServeResult result;
  FdWriter out{out_fd};
  // Serve one line; false ends the connection (bye or a dead peer).
  const auto serve = [&](std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) return true;  // blank lines are not frames
    ++result.lines;
    std::string reply = session.handle_line(line);
    reply += '\n';
    if (!out.write_all(reply)) return false;
    result.clean_bye = session.closed();
    return !result.clean_bye;
  };
  // The start of a line that a read cut off. At most kMaxFrameBytes + 1
  // bytes are kept -- enough for the session to classify the line as
  // oversized -- and the rest of the line is dropped as it arrives.
  std::string partial;
  const auto keep = [&partial](std::string_view piece) {
    const std::size_t room = kMaxFrameBytes + 1 - partial.size();
    partial.append(piece.substr(0, room));
  };
  char buffer[4096];
  while (true) {
    const ssize_t got = ::read(in_fd, buffer, sizeof buffer);
    if (got < 0) {
      if (errno == EINTR) continue;
      return result;
    }
    // A last unterminated line still counts: EOF ends the frame.
    if (got == 0) {
      if (!partial.empty()) (void)serve(partial);
      return result;
    }
    const std::string_view chunk{buffer, static_cast<std::size_t>(got)};
    std::size_t start = 0;
    for (std::size_t end = chunk.find('\n'); end != std::string_view::npos;
         end = chunk.find('\n', start)) {
      std::string_view line = chunk.substr(start, end - start);
      start = end + 1;
      if (!partial.empty()) {
        keep(line);
        line = partial;
      }
      const bool more = serve(line);
      partial.clear();
      if (!more) return result;
    }
    keep(chunk.substr(start));
  }
}

}  // namespace bfsim::svc
