#include "replication/transport.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <utility>

#include <condition_variable>

#include "common/fault_injector.h"
#include "common/mutex.h"

namespace seltrig {

namespace {

// Consults the transport fault points for one outbound frame. A point
// "fires" by returning non-OK from fault::Maybe; the transport consumes the
// error and performs the corresponding misbehavior instead of surfacing it.
struct SendPlan {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  bool torn = false;
};

SendPlan PlanSendFaults() {
  SendPlan plan;
  // A kDelay schedule sleeps inside Maybe; an error schedule on this point
  // is a no-op by design (the point only models latency).
  (void)fault::Maybe(fault_points::kReplicationDelay);
  if (!fault::Maybe(fault_points::kReplicationDrop).ok()) plan.drop = true;
  if (!fault::Maybe(fault_points::kReplicationDuplicate).ok()) plan.duplicate = true;
  if (!fault::Maybe(fault_points::kReplicationReorder).ok()) plan.reorder = true;
  if (!fault::Maybe(fault_points::kReplicationTorn).ok()) plan.torn = true;
  return plan;
}

// --- In-process transport ---------------------------------------------------

struct QueuePairState {
  Mutex mutex;
  std::condition_variable_any cv;
  std::deque<Frame> to_follower SELTRIG_GUARDED_BY(mutex);
  std::deque<Frame> to_primary SELTRIG_GUARDED_BY(mutex);
  bool closed SELTRIG_GUARDED_BY(mutex) = false;
  // Pending FrameChannel::Wake per endpoint, consumed by that end's Receive.
  bool primary_woken SELTRIG_GUARDED_BY(mutex) = false;
  bool follower_woken SELTRIG_GUARDED_BY(mutex) = false;
};

class InProcessChannel : public FrameChannel {
 public:
  InProcessChannel(std::shared_ptr<QueuePairState> state, bool primary_end)
      : state_(std::move(state)), primary_end_(primary_end) {}

  ~InProcessChannel() override { Close(); }

  Status Send(const Frame& frame) override {
    SendPlan plan = PlanSendFaults();
    if (plan.torn) {
      // The in-process analog of a connection dying mid-write: the frame is
      // lost and the channel is dead. (A truncated frame never decodes, so
      // the peer cannot tell the difference from a byte transport.)
      Close();
      return Status::Unavailable("replication channel torn mid-frame");
    }
    if (plan.drop) return Status::OK();
    MutexLock lock(&state_->mutex);
    if (state_->closed) return Status::Unavailable("replication channel closed");
    std::deque<Frame>& queue =
        primary_end_ ? state_->to_follower : state_->to_primary;
    if (plan.reorder) {
      // Hold this frame; it rides behind the NEXT send (swapping the pair).
      if (held_.has_value()) queue.push_back(*std::exchange(held_, std::nullopt));
      held_ = frame;
    } else {
      queue.push_back(frame);
      if (plan.duplicate) queue.push_back(frame);
      if (held_.has_value()) queue.push_back(*std::exchange(held_, std::nullopt));
    }
    state_->cv.notify_all();
    return Status::OK();
  }

  Result<Frame> Receive(int64_t timeout_ms) override {
    MutexLock lock(&state_->mutex);
    std::deque<Frame>& queue =
        primary_end_ ? state_->to_primary : state_->to_follower;
    bool& woken = primary_end_ ? state_->primary_woken : state_->follower_woken;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
    for (;;) {
      if (!queue.empty()) {
        Frame frame = std::move(queue.front());
        queue.pop_front();
        return frame;
      }
      if (state_->closed) {
        return Status::Unavailable("replication channel closed");
      }
      if (std::exchange(woken, false)) {
        return Status::DeadlineExceeded("receive woken");
      }
      if (timeout_ms == 0 ||
          (timeout_ms > 0 && std::chrono::steady_clock::now() >= deadline)) {
        return Status::DeadlineExceeded("no frame within " +
                                        std::to_string(timeout_ms) + "ms");
      }
      if (timeout_ms > 0) {
        state_->cv.wait_until(state_->mutex, deadline);
      } else {
        state_->cv.wait(state_->mutex);
      }
    }
  }

  void Wake() override {
    MutexLock lock(&state_->mutex);
    (primary_end_ ? state_->primary_woken : state_->follower_woken) = true;
    state_->cv.notify_all();
  }

  void Close() override {
    MutexLock lock(&state_->mutex);
    state_->closed = true;
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<QueuePairState> state_;
  const bool primary_end_;
  // Frame held back by a fired replication.reorder (guarded by state_->mutex;
  // only this endpoint's Send touches it).
  std::optional<Frame> held_;
};

// --- Local socket transport -------------------------------------------------

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Waits for `fd` to become readable. OK / kDeadlineExceeded /
// kUnavailable. A pending wake on `wake_fd` (an eventfd; -1 for none) ends
// the wait with kDeadlineExceeded and is consumed — unless `fd` is readable
// too, which wins.
Status PollReadable(int fd, int64_t timeout_ms, int wake_fd = -1) {
  // poll ignores a negative descriptor, so the wake slot may be empty.
  struct pollfd pfds[2] = {{fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
  int timeout = timeout_ms < 0 ? -1
                               : static_cast<int>(timeout_ms > INT32_MAX
                                                      ? INT32_MAX
                                                      : timeout_ms);
  for (;;) {
    int rc = ::poll(pfds, 2, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("poll"));
    }
    if (rc == 0) return Status::DeadlineExceeded("socket poll timed out");
    if (pfds[0].revents != 0) return Status::OK();
    uint64_t wakes = 0;
    ssize_t drained = ::read(wake_fd, &wakes, sizeof(wakes));
    (void)drained;  // EAGAIN: a racing Receive consumed it; still a wake
    return Status::DeadlineExceeded("receive woken");
  }
}

class SocketChannel : public FrameChannel {
 public:
  SocketChannel(int fd, int wake_fd) : fd_(fd), wake_fd_(wake_fd) {}

  ~SocketChannel() override {
    Close();
    ::close(fd_);
    ::close(wake_fd_);
  }

  Status Send(const Frame& frame) override {
    SendPlan plan = PlanSendFaults();
    std::string bytes = EncodeFrame(frame);
    MutexLock lock(&send_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("replication channel closed");
    }
    if (plan.torn) {
      // Push a prefix of the frame onto the wire, then kill the connection:
      // the peer reads a partial envelope and treats the stream as dead.
      (void)WriteAll(bytes.data(), bytes.size() / 2);
      CloseLocked();
      return Status::Unavailable("replication channel torn mid-frame");
    }
    if (plan.drop) return Status::OK();
    if (plan.reorder) {
      if (!held_.empty()) {
        std::string previous = std::move(held_);
        held_.clear();
        SELTRIG_RETURN_IF_ERROR(WriteAll(previous.data(), previous.size()));
      }
      held_ = std::move(bytes);
      return Status::OK();
    }
    SELTRIG_RETURN_IF_ERROR(WriteAll(bytes.data(), bytes.size()));
    if (plan.duplicate) {
      SELTRIG_RETURN_IF_ERROR(WriteAll(bytes.data(), bytes.size()));
    }
    if (!held_.empty()) {
      std::string previous = std::move(held_);
      held_.clear();
      SELTRIG_RETURN_IF_ERROR(WriteAll(previous.data(), previous.size()));
    }
    return Status::OK();
  }

  Result<Frame> Receive(int64_t timeout_ms) override {
    MutexLock lock(&recv_mutex_);
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      // A full frame already buffered?
      if (buffer_.size() >= kFrameEnvelopeSize) {
        uint32_t length = 0;
        std::memcpy(&length, buffer_.data(), sizeof(length));
        if (length > kMaxFrameBody) {
          return Status::DataLoss("replication frame length out of range");
        }
        const size_t total = kFrameEnvelopeSize + length;
        if (buffer_.size() >= total) {
          Result<Frame> frame =
              DecodeFrame(std::string_view(buffer_.data(), total));
          buffer_.erase(0, total);
          return frame;
        }
      }
      if (closed_.load(std::memory_order_acquire)) {
        return Status::Unavailable("replication channel closed");
      }
      int64_t remaining = timeout_ms;
      if (timeout_ms > 0) {
        auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        remaining = timeout_ms - elapsed;
        if (remaining <= 0) {
          return Status::DeadlineExceeded("no frame within " +
                                          std::to_string(timeout_ms) + "ms");
        }
      }
      SELTRIG_RETURN_IF_ERROR(PollReadable(fd_, remaining, wake_fd_));
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(Errno("recv"));
      }
      if (n == 0) {
        // Peer closed. Left-over partial bytes are a torn frame — dead
        // stream either way.
        return Status::Unavailable("replication peer closed the connection");
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Wake() override {
    const uint64_t one = 1;
    // Fails only if the counter would overflow, i.e. a wake is pending.
    ssize_t written = ::write(wake_fd_, &one, sizeof(one));
    (void)written;
  }

  void Close() override {
    MutexLock lock(&send_mutex_);
    CloseLocked();
  }

 private:
  Status WriteAll(const char* data, size_t size) SELTRIG_REQUIRES(send_mutex_) {
    size_t written = 0;
    while (written < size) {
      // MSG_NOSIGNAL: a dead peer yields EPIPE, not SIGPIPE.
      ssize_t n = ::send(fd_, data + written, size - written, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        CloseLocked();
        return Status::Unavailable(Errno("send"));
      }
      written += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  void CloseLocked() SELTRIG_REQUIRES(send_mutex_) {
    if (!closed_.exchange(true, std::memory_order_acq_rel)) {
      // shutdown (not close) so a Receive blocked in poll on another thread
      // wakes with EOF instead of racing a reused descriptor.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  const int fd_;
  const int wake_fd_;  // eventfd carrying Wake into Receive's poll
  std::atomic<bool> closed_{false};
  Mutex send_mutex_;
  Mutex recv_mutex_;
  std::string held_ SELTRIG_GUARDED_BY(send_mutex_);  // replication.reorder
  std::string buffer_;  // guarded by recv_mutex_ (annotation omitted: local use)
};

// Takes ownership of a connected socket and pairs it with its wake eventfd.
Result<std::shared_ptr<FrameChannel>> MakeSocketChannel(int fd) {
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    Status error = Status::Unavailable(Errno("eventfd"));
    ::close(fd);
    return error;
  }
  return std::static_pointer_cast<FrameChannel>(
      std::make_shared<SocketChannel>(fd, wake_fd));
}

}  // namespace

ChannelPair CreateInProcessChannelPair() {
  auto state = std::make_shared<QueuePairState>();
  ChannelPair pair;
  pair.primary_end = std::make_shared<InProcessChannel>(state, /*primary_end=*/true);
  pair.follower_end =
      std::make_shared<InProcessChannel>(state, /*primary_end=*/false);
  return pair;
}

LocalSocketServer::~LocalSocketServer() { Close(); }

Result<std::unique_ptr<LocalSocketServer>> LocalSocketServer::Listen(
    const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status error = Status::Unavailable(Errno("bind " + path));
    ::close(fd);
    return error;
  }
  if (::listen(fd, 8) != 0) {
    Status error = Status::Unavailable(Errno("listen " + path));
    ::close(fd);
    return error;
  }
  auto server = std::unique_ptr<LocalSocketServer>(new LocalSocketServer());
  server->fd_ = fd;
  server->path_ = path;
  return server;
}

Result<std::shared_ptr<FrameChannel>> LocalSocketServer::Accept(
    int64_t timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("server closed");
  SELTRIG_RETURN_IF_ERROR(PollReadable(fd_, timeout_ms));
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Status::Unavailable(Errno("accept"));
  return MakeSocketChannel(fd);
}

void LocalSocketServer::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
    fd_ = -1;
  }
}

Result<std::shared_ptr<FrameChannel>> ConnectLocalSocket(const std::string& path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable(Errno("socket"));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status error = Status::Unavailable(Errno("connect " + path));
    ::close(fd);
    return error;
  }
  return MakeSocketChannel(fd);
}

}  // namespace seltrig
