// bfsim_served -- the online scheduling daemon.
//
// Speaks the line-delimited JSON protocol (src/svc/protocol.hpp) over
// a Unix-domain socket or stdin/stdout. One daemon hosts one
// scheduling session: the first client's `hello` fixes the scheduler
// configuration, and --state makes the session crash-safe -- every
// accepted frame is journaled to the event log before its reply is
// sent, so a killed daemon relaunched with the same --state replays
// the log into an identical scheduler and greets the client with the
// sequence number to resume from.
//
//   bfsim_served --socket /tmp/bfsim.sock --state /tmp/bfsim.log
//   bfsim_served --stdio
//
// In socket mode the daemon serves connections sequentially (the
// session outlives a dropped connection; a reconnecting client simply
// re-sends `hello`) and exits after a clean `bye`. Each connection is
// served on the main thread: the daemon reads the next frame only
// after it has answered the last one.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "svc/server.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bfsim_served (--socket PATH | --stdio) [--state PATH]\n"
               "  --socket PATH  listen on a Unix-domain socket\n"
               "  --stdio        serve one session over stdin/stdout\n"
               "  --state PATH   crash-safe event log (enables resume)\n");
}

void print_report(const bfsim::svc::Session& session) {
  const bfsim::svc::ProtocolReport& report = session.report();
  std::fprintf(stderr, "bfsim_served: %llu frames, %llu rejected\n",
               static_cast<unsigned long long>(report.frames),
               static_cast<unsigned long long>(report.rejected));
  for (const auto& [reason, count] : report.reasons)
    std::fprintf(stderr, "bfsim_served:   %s: %llu\n", reason.c_str(),
                 static_cast<unsigned long long>(count));
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  bool stdio = false;
  bfsim::svc::SessionOptions session_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--state") {
      session_options.state_path = value();
    } else {
      usage();
      return 2;
    }
  }
  if (stdio == !socket_path.empty()) {  // exactly one transport required
    usage();
    return 2;
  }

  bfsim::svc::Session session{session_options};
#if defined(__unix__) || defined(__APPLE__)
  // Sockets are written without SIGPIPE (svc::FdWriter); this covers
  // the --stdio pipes, so a reader that exits early ends the connection
  // with a failed write.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  if (stdio) {
    bfsim::svc::serve_connection(0, 1, session);
    print_report(session);
    return 0;
  }

#if defined(__unix__) || defined(__APPLE__)
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("bfsim_served: socket");
    return 1;
  }
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof address.sun_path) {
    std::fprintf(stderr, "bfsim_served: socket path too long\n");
    return 1;
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // a previous daemon's leftover node
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) < 0) {
    std::perror("bfsim_served: bind");
    return 1;
  }
  if (::listen(listener, 1) < 0) {
    std::perror("bfsim_served: listen");
    return 1;
  }
  // Serve connections until a client ends the session with `bye`. A
  // dropped connection (client crash, network blip) keeps the session:
  // the client reconnects, re-sends `hello`, and resumes.
  while (true) {
    const int connection = ::accept(listener, nullptr, nullptr);
    if (connection < 0) {
      std::perror("bfsim_served: accept");
      break;
    }
    const bfsim::svc::ServeResult result =
        bfsim::svc::serve_connection(connection, connection, session);
    ::close(connection);
    if (result.clean_bye) break;
  }
  ::close(listener);
  ::unlink(socket_path.c_str());
  print_report(session);
  return 0;
#else
  std::fprintf(stderr, "bfsim_served: socket mode is POSIX-only\n");
  return 1;
#endif
}
