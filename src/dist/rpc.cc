#include "dist/rpc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

namespace qrank {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Blocks until fd is ready for `events` or the deadline passes.
/// POLLERR/POLLHUP also count as ready: the subsequent send/recv
/// reports the precise error.
Status WaitReady(int fd, short events, RpcDeadline deadline,
                 const char* what) {
  for (;;) {
    const int ms = PollTimeoutMs(deadline);
    if (ms == 0) {
      return Status::IOError(std::string(what) + ": deadline exceeded");
    }
    struct pollfd p = {fd, events, 0};
    const int rc = ::poll(&p, 1, ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::IOError(std::string(what) + ": deadline exceeded");
    }
    if (errno != EINTR) return ErrnoStatus("poll");
  }
}

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) return ErrnoStatus("fcntl(F_SETFL)");
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

int PollTimeoutMs(RpcDeadline deadline) {
  if (deadline == kNoRpcDeadline) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
          .count() +
      1;  // round up so we never poll(0) while time remains
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::Connect(const std::string& host, uint16_t port,
                               RpcDeadline deadline) {
  bool pending = false;
  Result<Socket> sock = StartConnect(host, port, &pending);
  if (!sock.ok() || !pending) return sock;
  QRANK_RETURN_NOT_OK(
      WaitReady(sock.value().fd(), POLLOUT, deadline, "connect"));
  QRANK_RETURN_NOT_OK(sock.value().FinishConnect());
  return sock;
}

Result<Socket> Socket::StartConnect(const std::string& host, uint16_t port,
                                    bool* pending) {
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return ErrnoStatus("socket");
  // Non-blocking for its whole lifetime: the deadline bounds the
  // handshake, SendAll paces each send with poll(2) and FrameReader
  // never waits, so no single syscall can block past the deadline (a
  // blocking send of a frame larger than the socket buffer would stall
  // until the peer drains it).
  QRANK_RETURN_NOT_OK(SetNonBlocking(sock.fd(), true));
  SetNoDelay(sock.fd());
  const int rc = ::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  *pending = rc < 0 && errno == EINPROGRESS;
  if (rc < 0 && !*pending) return ErrnoStatus("connect");
  return sock;
}

Status Socket::FinishConnect() {
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return ErrnoStatus("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(err));
  }
  return Status::OK();
}

Status Socket::SendAll(const uint8_t* data, size_t len, RpcDeadline deadline) {
  if (!valid()) return Status::FailedPrecondition("send on closed socket");
  size_t sent = 0;
  while (sent < len) {
    QRANK_RETURN_NOT_OK(WaitReady(fd_, POLLOUT, deadline, "send"));
    const ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return ErrnoStatus("send");
  }
  return Status::OK();
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SendFrame(Socket& sock, std::span<const uint8_t> frame,
                 RpcDeadline deadline) {
  QRANK_CHECK(frame.size() >= kFrameHeaderBytes)
      << "SendFrame given a non-frame buffer";
  return sock.SendAll(frame.data(), frame.size(), deadline);
}

void FrameReader::Begin(std::vector<uint8_t>* frame) {
  frame->clear();
  frame->resize(kFrameHeaderBytes);
  got_ = 0;
}

Result<bool> FrameReader::ReadSome(Socket& sock, std::vector<uint8_t>* frame,
                                   FrameHeader* header) {
  for (;;) {
    const ssize_t n =
        ::recv(sock.fd(), frame->data() + got_, frame->size() - got_, 0);
    if (n == 0) return Status::IOError("connection closed by peer");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      return ErrnoStatus("recv");
    }
    got_ += static_cast<size_t>(n);
    if (got_ < frame->size()) continue;
    if (frame->size() == kFrameHeaderBytes) {
      Result<FrameHeader> head = DecodeFrameHeader(*frame);
      if (!head.ok()) return head.status();
      if (head.value().payload_len > 0) {
        // payload_len is validated against kMaxFramePayload by
        // DecodeFrameHeader before this resize can run.
        frame->resize(kFrameHeaderBytes + head.value().payload_len);
        continue;
      }
    }
    Result<FrameHeader> full = DecodeFrame(*frame);
    if (!full.ok()) return full.status();
    *header = full.value();
    return true;
  }
}

Result<FrameHeader> RecvFrame(Socket& sock, std::vector<uint8_t>* frame,
                              RpcDeadline deadline) {
  if (!sock.valid()) return Status::FailedPrecondition("recv on closed socket");
  FrameReader reader;
  reader.Begin(frame);
  FrameHeader header;
  for (;;) {
    QRANK_RETURN_NOT_OK(WaitReady(sock.fd(), POLLIN, deadline, "recv"));
    Result<bool> done = reader.ReadSome(sock, frame, &header);
    if (!done.ok()) return done.status();
    if (done.value()) return header;
  }
}

RpcServer::RpcServer(Options options, FrameHandler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start() {
  MutexLock lock(&mu_);
  if (started_) return Status::FailedPrecondition("RpcServer already started");
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " +
                                   options_.host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const Status st = ErrnoStatus("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) < 0) {
    const Status st = ErrnoStatus("listen");
    ::close(fd);
    return st;
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const Status st = ErrnoStatus("getsockname");
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  bound_port_ = ntohs(bound.sin_port);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(&mu_);
    for (std::unique_ptr<Connection>& c : connections_) c->socket.Shutdown();
    conns.swap(connections_);
  }
  for (std::unique_ptr<Connection>& c : conns) {
    if (c->thread.joinable()) c->thread.join();
  }
  MutexLock lock(&mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

uint16_t RpcServer::port() const {
  MutexLock lock(&mu_);
  return bound_port_;
}

size_t RpcServer::active_connections() const {
  MutexLock lock(&mu_);
  size_t live = 0;
  for (const std::unique_ptr<Connection>& c : connections_) {
    if (!c->finished) ++live;
  }
  return live;
}

uint64_t RpcServer::frames_handled() const {
  MutexLock lock(&mu_);
  return frames_handled_;
}

void RpcServer::AcceptLoop() {
  for (;;) {
    int lfd = -1;
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
      lfd = listen_fd_;
    }
    struct sockaddr_in peer = {};
    socklen_t len = sizeof peer;
    const int cfd = ::accept(lfd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      {
        MutexLock lock(&mu_);
        if (stopping_) return;
      }
      // Persistent accept failure (e.g. EMFILE/ENFILE): with a
      // connection still pending, accept fails again immediately, so
      // back off briefly instead of busy-spinning a core until fds
      // free up. Stop() is delayed by at most one sleep.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (!SetNonBlocking(cfd, true).ok()) {
      ::close(cfd);
      continue;
    }
    SetNoDelay(cfd);
    MutexLock lock(&mu_);
    if (stopping_) {
      ::close(cfd);
      return;
    }
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    conn->socket = Socket(cfd);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ConnectionLoop(raw); });
    connections_.push_back(std::move(conn));
  }
}

void RpcServer::ConnectionLoop(Connection* conn) {
  std::vector<uint8_t> frame;
  std::vector<uint8_t> response;
  for (;;) {
    Result<FrameHeader> header =
        RecvFrame(conn->socket, &frame, kNoRpcDeadline);
    if (!header.ok()) break;  // disconnect, cancel, or corrupt stream
    response.clear();
    handler_(header.value(),
             std::span<const uint8_t>(frame).subspan(kFrameHeaderBytes),
             &response);
    {
      MutexLock lock(&mu_);
      ++frames_handled_;
    }
    if (response.empty()) break;  // handler declared the stream dead
    const RpcDeadline deadline =
        std::chrono::steady_clock::now() + options_.send_timeout;
    if (!SendFrame(conn->socket, response, deadline).ok()) break;
  }
  conn->socket.Shutdown();
  MutexLock lock(&mu_);
  conn->finished = true;
}

void RpcServer::ReapFinishedLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->finished) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      connections_.erase(connections_.begin() +
                         static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace qrank
