// Pluggable frame transports for replication (docs/REPLICATION.md).
//
// A FrameChannel is one endpoint of a bidirectional, ordered (per direction,
// absent injected faults) frame stream between a primary and one follower.
// Two implementations ship:
//
//   - in-process queue pair (CreateInProcessChannelPair): the test transport;
//     both endpoints live in one process and exchange frames through bounded
//     deques.
//   - local stream socket (LocalSocketServer / ConnectLocalSocket): a
//     unix-domain socket carrying EncodeFrame bytes, for processes sharing a
//     host.
//
// Fault injection: every Send first consults the transport fault points, in
// this order — `replication.delay` (stall the send; arm with a kDelay
// schedule), `replication.drop` (discard the frame), `replication.duplicate`
// (deliver it twice), `replication.reorder` (hold the frame and emit it
// after the NEXT send, swapping the pair), `replication.torn` (deliver a
// truncated prefix of the encoded frame, then fail the channel — the socket
// analog of a connection dying mid-write; the in-process transport closes
// the channel, which the peer observes identically since a torn frame never
// decodes). The point fires by returning non-OK from fault::Maybe; the
// transport consumes the error and performs the behavior instead of
// propagating it. The shipper/applier pair recovers from all of these via
// position checks, NAK reseeks, and reconnects — which is exactly what
// tests/replication and the crashtest replication mode exercise.

#ifndef SELTRIG_REPLICATION_TRANSPORT_H_
#define SELTRIG_REPLICATION_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "replication/wire.h"

namespace seltrig {

class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  // Delivers `frame` to the peer, subject to the fault points above.
  // kUnavailable once the channel is closed or failed.
  virtual Status Send(const Frame& frame) = 0;

  // Blocks up to `timeout_ms` (0 = poll, < 0 = forever) for the next frame.
  // kDeadlineExceeded on timeout, kUnavailable when the peer closed or the
  // stream died, kDataLoss when bytes arrived but do not decode (the caller
  // should treat the channel as dead).
  virtual Result<Frame> Receive(int64_t timeout_ms) = 0;

  // Makes this endpoint's blocked or next Receive return kDeadlineExceeded
  // at once. Sticky until one Receive consumes it; a frame already queued is
  // returned ahead of a pending wake. Callable from any thread (the shipper's
  // commit path uses it to end an idle wait when a record lands).
  virtual void Wake() = 0;

  // Closes this endpoint; the peer's pending and future Receives return
  // kUnavailable once drained. Idempotent, callable from any thread (used to
  // unblock a Receive on another thread).
  virtual void Close() = 0;
};

// An in-process endpoint pair: frames Sent on `primary_end` arrive at
// `follower_end` and vice versa.
struct ChannelPair {
  std::shared_ptr<FrameChannel> primary_end;
  std::shared_ptr<FrameChannel> follower_end;
};
ChannelPair CreateInProcessChannelPair();

// Listening end of the local-socket transport. The path length is bounded by
// sockaddr_un (~100 bytes); keep socket paths short.
class LocalSocketServer {
 public:
  ~LocalSocketServer();
  LocalSocketServer(const LocalSocketServer&) = delete;
  LocalSocketServer& operator=(const LocalSocketServer&) = delete;

  // Binds and listens on `path` (an existing socket file is replaced).
  static Result<std::unique_ptr<LocalSocketServer>> Listen(const std::string& path);

  // Accepts one connection. Timeout semantics as in FrameChannel::Receive.
  Result<std::shared_ptr<FrameChannel>> Accept(int64_t timeout_ms);

  void Close();
  const std::string& path() const { return path_; }

 private:
  LocalSocketServer() = default;
  int fd_ = -1;
  std::string path_;
};

// Connects to a LocalSocketServer at `path`.
Result<std::shared_ptr<FrameChannel>> ConnectLocalSocket(const std::string& path);

}  // namespace seltrig

#endif  // SELTRIG_REPLICATION_TRANSPORT_H_
