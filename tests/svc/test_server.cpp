// The transport: serve_connection's one-thread line splitter over real
// descriptors, and the rule that a peer which hung up ends a
// connection, never the process (no SIGPIPE on either end). Lives in
// the svc concurrency binary so CI reruns it under TSan: the harness
// runs the server on its own thread against a live session.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>

#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/session.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace bfsim::svc {
namespace {

constexpr const char* kHello =
    R"({"type":"hello","v":3,"scheduler":"easy","procs":8})";
constexpr const char* kFirstBatch =
    R"({"type":"events","seq":1,"now":0,"events":[)"
    R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})";

/// A serve_connection harness over two pipes: writes frames in, reads
/// reply lines out, with the server on its own thread.
class PipeServer {
 public:
  explicit PipeServer(Session& session) {
    EXPECT_EQ(::pipe(to_server_), 0);
    EXPECT_EQ(::pipe(to_client_), 0);
    server_ = std::thread{[this, &session] {
      result_ = serve_connection(to_server_[0], to_client_[1], session);
      // Close the reply pipe so a reader waiting for more lines sees
      // EOF instead of hanging.
      ::close(to_client_[1]);
    }};
  }

  ~PipeServer() {
    finish();
    ::close(to_server_[0]);
    ::close(to_client_[0]);
  }

  void send(const std::string& line) {
    const std::string framed = line + '\n';
    ASSERT_EQ(::write(to_server_[1], framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  void send_raw(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t wrote =
          ::write(to_server_[1], bytes.data() + done, bytes.size() - done);
      ASSERT_GT(wrote, 0);
      done += static_cast<std::size_t>(wrote);
    }
  }

  std::string read_reply() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::read(to_client_[0], chunk, sizeof chunk);
      if (got <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// Close the client's write end and join the server thread.
  ServeResult finish() {
    if (to_server_[1] >= 0) {
      ::close(to_server_[1]);
      to_server_[1] = -1;
    }
    if (server_.joinable()) server_.join();
    return result_;
  }

 private:
  int to_server_[2] = {-1, -1};
  int to_client_[2] = {-1, -1};
  std::thread server_;
  ServeResult result_;
  std::string buffer_;
};

std::string type_of(const std::string& reply) {
  const Json parsed = parse_json(reply);
  const Json* type = parsed.find("type");
  return type != nullptr && type->is_string() ? type->as_string() : "";
}

TEST(ServeConnection, FullConversationOverPipes) {
  Session session;
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  server.send(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
  const std::string decisions = server.read_reply();
  EXPECT_EQ(type_of(decisions), "decisions");
  EXPECT_NE(decisions.find("\"starts\":[0]"), std::string::npos);
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 3u);
}

TEST(ServeConnection, DroppedConnectionKeepsTheSession) {
  Session session;
  {
    PipeServer server{session};
    server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
    EXPECT_EQ(type_of(server.read_reply()), "welcome");
    server.send(
        R"({"type":"events","seq":1,"now":0,"events":[)"
        R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
    EXPECT_EQ(type_of(server.read_reply()), "decisions");
    const ServeResult result = server.finish();  // EOF without bye
    EXPECT_FALSE(result.clean_bye);
  }
  EXPECT_FALSE(session.closed());
  // A second connection resumes the same live session.
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  const std::string welcome = server.read_reply();
  EXPECT_EQ(type_of(welcome), "welcome");
  EXPECT_NE(welcome.find("\"resumed_seq\":1"), std::string::npos);
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

TEST(ServeConnection, OversizedLineIsQuarantinedNotFatal) {
  Session session;
  PipeServer server{session};
  server.send(R"({"type":"hello","v":3,"scheduler":"easy","procs":8})");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  // A frame far over the cap streams in; the reader keeps only enough
  // to classify it and discards the rest, so memory stays bounded.
  std::string huge = R"({"type":"events","pad":")";
  huge.resize(kMaxFrameBytes + 4096, 'x');
  huge += "\n";
  server.send_raw(huge);
  const std::string reply = server.read_reply();
  EXPECT_EQ(type_of(reply), "error");
  EXPECT_NE(reply.find("oversized-frame"), std::string::npos);
  // The session is unharmed.
  server.send(
      R"({"type":"events","seq":1,"now":0,"events":[)"
      R"({"kind":"submit","id":0,"submit":0,"estimate":50,"procs":2}]})");
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

TEST(ServeConnection, BlankAndCarriageReturnLinesAreIgnored) {
  Session session;
  PipeServer server{session};
  server.send_raw("\n\r\n");
  server.send_raw(
      "{\"type\":\"hello\",\"v\":3,\"scheduler\":\"easy\",\"procs\":8}\r\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);  // blank lines never reach the session
}

TEST(ServeConnection, FrameStormIsAnsweredInOrder) {
  // A writer streams frames while replies are read: both pipes fill
  // past their kernel buffers, so the writer stalls whenever the server
  // is behind (the server reads only when it is ready to serve), and
  // every frame is still answered, in order.
  Session session;
  PipeServer server{session};
  server.send(kHello);
  constexpr int kFrames = 2000;
  std::thread writer{[&] {
    for (int i = 0; i < kFrames; ++i)
      server.send(R"({"type":"report"})");
  }};
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  for (int i = 0; i < kFrames; ++i) {
    const Json reply = parse_json(server.read_reply());
    const Json* frames = reply.find("frames");
    ASSERT_NE(frames, nullptr);
    EXPECT_EQ(frames->as_int(), i + 2);  // the hello was frame 1
  }
  writer.join();
  server.send(R"({"type":"bye"})");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(server.finish().clean_bye);
}

TEST(ServeConnection, FrameWrittenOneByteAtATime) {
  Session session;
  PipeServer server{session};
  for (const char byte : std::string(kHello) + "\n")
    server.send_raw(std::string(1, byte));
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  for (const char byte : std::string(kFirstBatch) + "\n")
    server.send_raw(std::string(1, byte));
  const std::string decisions = server.read_reply();
  EXPECT_EQ(type_of(decisions), "decisions");
  EXPECT_NE(decisions.find("\"starts\":[0]"), std::string::npos);
  const ServeResult result = server.finish();
  EXPECT_FALSE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);
}

TEST(ServeConnection, SeveralFramesInOneWrite) {
  Session session;
  PipeServer server{session};
  server.send_raw(std::string(kHello) + "\n" + kFirstBatch + "\n" +
                  R"({"type":"stats"})" + "\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(type_of(server.read_reply()), "decisions");
  EXPECT_EQ(type_of(server.read_reply()), "stats");
  EXPECT_EQ(server.finish().lines, 3u);
}

TEST(ServeConnection, FinalUnterminatedLineIsServedAtEof) {
  Session session;
  PipeServer server{session};
  server.send(kHello);
  server.send_raw(R"({"type":"bye"})");  // no newline: EOF ends it
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  const ServeResult result = server.finish();
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);
}

TEST(ServeConnection, BytesAfterByeAreNotServed) {
  Session session;
  PipeServer server{session};
  server.send_raw(std::string(kHello) + "\n" + R"({"type":"bye"})" + "\n" +
                  kFirstBatch + "\n");
  EXPECT_EQ(type_of(server.read_reply()), "welcome");
  EXPECT_EQ(type_of(server.read_reply()), "bye");
  const ServeResult result = server.finish();
  EXPECT_TRUE(result.clean_bye);
  EXPECT_EQ(result.lines, 2u);
  EXPECT_EQ(server.read_reply(), "");  // nothing after the bye
  EXPECT_EQ(session.last_seq(), 0u);   // the batch never reached it
}

// The two SIGPIPE tests run in a child process: a build that lets the
// signal through fails them with a killed child instead of killing the
// test binary.

TEST(ServeConnection, PeerGoneBeforeTheReplyKeepsTheSession) {
  EXPECT_EXIT(
      {
        bool ok = false;
        {
          int fds[2];
          ok = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
          const std::string hello = std::string(kHello) + "\n";
          ok = ok && ::write(fds[0], hello.data(), hello.size()) ==
                         static_cast<ssize_t>(hello.size());
          ::close(fds[0]);  // the client hangs up before the welcome
          Session session;
          const ServeResult result = serve_connection(fds[1], fds[1], session);
          ::close(fds[1]);
          // The hello was served and only its reply was lost; a client
          // that reconnects finds the session live.
          ok = ok && result.lines == 1 && !result.clean_bye &&
               type_of(session.handle_line(kHello)) == "welcome" &&
               type_of(session.handle_line(kFirstBatch)) == "decisions";
        }
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FdChannel, PeerGoneThrowsChannelError) {
  EXPECT_EXIT(
      {
        bool ok = false;
        {
          int fds[2];
          ok = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0;
          ::close(fds[1]);  // the daemon is gone
          FdChannel channel(fds[0], fds[0]);
          try {
            (void)channel.roundtrip(kHello);
            ok = false;
          } catch (const ChannelError&) {
          }
          ::close(fds[0]);
        }
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace bfsim::svc
