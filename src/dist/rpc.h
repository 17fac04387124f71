// Socket transport of the distributed query tier: an RAII TCP socket
// with deadline-bounded I/O, framed send/receive over the QRKF wire
// format, and a thread-per-connection RPC server.
//
// Threading model (deliberately simple, mirroring mithril's
// BasicServer): the server runs one accept thread plus one thread per
// live connection; sockets are O_NONBLOCK for their whole lifetime and
// every operation loops poll(2)+syscall, so each individual send/recv
// — not just the wait for readiness — is bounded by the remaining
// deadline. Clients that drive many sockets from one thread (the
// coordinator) use the same pieces without waiting: StartConnect /
// FinishConnect around their own poll(2), and a FrameReader per socket
// that advances a frame by whatever bytes have arrived. Cancellation
// is by disconnect — a caller that gives up on a request closes the
// socket, which makes the peer's read fail and tears the stream down
// instead of leaving it desynchronized (a QRKF stream has no request
// framing to resynchronize on after an abandoned response).
//
// All shared state is annotated (QRANK_GUARDED_BY) and uses
// qrank::Mutex; the loopback suites run under TSan in CI.

#ifndef QRANK_DIST_RPC_H_
#define QRANK_DIST_RPC_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/wire_format.h"

namespace qrank {

/// Absolute deadline for a socket operation. kNoRpcDeadline blocks
/// until the peer acts or the connection dies.
using RpcDeadline = std::chrono::steady_clock::time_point;
inline constexpr RpcDeadline kNoRpcDeadline = RpcDeadline::max();

/// poll(2) timeout until `deadline`: -1 for kNoRpcDeadline, 0 once it
/// has passed, otherwise the remaining milliseconds rounded up (so a
/// caller never polls with 0 while time remains).
int PollTimeoutMs(RpcDeadline deadline);

/// Move-only RAII wrapper over a connected TCP socket fd.
///
/// A Socket is owned and used by ONE thread at a time; the only
/// cross-thread operation is Shutdown(), which is async-safe against a
/// concurrent blocked Send/Recv on the same object (it calls
/// ::shutdown, never ::close, so the fd cannot be recycled under the
/// blocked thread).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1"),
  /// honoring the deadline for the connect itself.
  static Result<Socket> Connect(const std::string& host, uint16_t port,
                                RpcDeadline deadline);

  /// Starts a non-blocking connect and returns without waiting. When
  /// *pending comes back true the handshake is still running: wait for
  /// POLLOUT on fd(), then call FinishConnect.
  static Result<Socket> StartConnect(const std::string& host, uint16_t port,
                                     bool* pending);

  /// Reports how a pending connect ended (IOError if it was refused).
  Status FinishConnect();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends exactly len bytes or fails (IOError on disconnect or
  /// deadline).
  Status SendAll(const uint8_t* data, size_t len, RpcDeadline deadline);

  /// Half-closes both directions, failing any blocked or future I/O on
  /// this socket. Safe to call from another thread; idempotent.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
};

/// Sends one already-encoded QRKF frame.
Status SendFrame(Socket& sock, std::span<const uint8_t> frame,
                 RpcDeadline deadline);

/// Reads one QRKF frame from a non-blocking socket in as many steps as
/// its bytes take to arrive: the 16 header bytes, then a payload sized
/// only after DecodeFrameHeader has accepted the header (hardened
/// reader contract), then DecodeFrame's CRC check over the whole frame.
/// It keeps only how far it got, so one thread can poll many sockets
/// and never wait on a peer that stalls mid-frame.
class FrameReader {
 public:
  /// Starts a new frame in *frame: clears it, keeping its capacity.
  void Begin(std::vector<uint8_t>* frame);

  /// Reads what `sock` has ready into *frame (the buffer given to
  /// Begin) without waiting. Returns true once the frame is complete
  /// and valid, with *header describing it; false while bytes are
  /// still missing. An error (EOF, reset, corrupt header or CRC) means
  /// the stream is dead.
  Result<bool> ReadSome(Socket& sock, std::vector<uint8_t>* frame,
                        FrameHeader* header);

 private:
  size_t got_ = 0;
};

/// Receives one frame into *frame (header + payload, buffer reused
/// across calls): a FrameReader driven until the frame is complete or
/// the deadline passes. Any corruption fails the call; callers treat
/// that as a dead stream.
Result<FrameHeader> RecvFrame(Socket& sock, std::vector<uint8_t>* frame,
                              RpcDeadline deadline);

/// Thread-per-connection RPC server over QRKF frames.
///
/// The handler is invoked on a connection thread for every received
/// frame and must encode exactly one response frame into
/// *response_frame (an empty response closes the connection, used for
/// unrecoverable protocol errors). Handlers run concurrently across
/// connections and must be thread-safe.
class RpcServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 picks an ephemeral port; see port().
    uint16_t port = 0;
    /// Deadline for writing a response back to a client.
    std::chrono::milliseconds send_timeout{5000};
  };

  using FrameHandler =
      std::function<void(const FrameHeader& header,
                         std::span<const uint8_t> payload,
                         std::vector<uint8_t>* response_frame)>;

  RpcServer(Options options, FrameHandler handler);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the accept thread. FailedPrecondition
  /// if already started.
  Status Start() QRANK_EXCLUDES(mu_);

  /// Shuts the listener and every live connection down and joins all
  /// threads. Idempotent; also run by the destructor.
  void Stop() QRANK_EXCLUDES(mu_);

  /// Bound port (useful with Options::port == 0). 0 before Start().
  uint16_t port() const QRANK_EXCLUDES(mu_);

  /// Connections currently being served.
  size_t active_connections() const QRANK_EXCLUDES(mu_);

  /// Total frames dispatched to the handler since Start().
  uint64_t frames_handled() const QRANK_EXCLUDES(mu_);

 private:
  struct Connection;

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);

  /// Joins finished connection threads. Called with mu_ held.
  void ReapFinishedLocked() QRANK_REQUIRES(mu_);

  struct Connection {
    std::thread thread;
    Socket socket;
    bool finished = false;
  };

  const Options options_;
  const FrameHandler handler_;

  mutable Mutex mu_;
  bool started_ QRANK_GUARDED_BY(mu_) = false;
  bool stopping_ QRANK_GUARDED_BY(mu_) = false;
  uint16_t bound_port_ QRANK_GUARDED_BY(mu_) = 0;
  /// Listener fd lives here (not in a Socket) so AcceptLoop can block
  /// in accept() while Stop() shuts it down under the lock.
  int listen_fd_ QRANK_GUARDED_BY(mu_) = -1;
  std::vector<std::unique_ptr<Connection>> connections_ QRANK_GUARDED_BY(mu_);
  uint64_t frames_handled_ QRANK_GUARDED_BY(mu_) = 0;

  /// Accept thread; joined by Stop. Only touched by Start/Stop, which
  /// serialize through started_/stopping_.
  std::thread accept_thread_;
};

}  // namespace qrank

#endif  // QRANK_DIST_RPC_H_
