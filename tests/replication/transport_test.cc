// Transport-layer tests: the frame codec, the in-process channel pair, the
// unix-socket transport, and the five transport fault points
// (docs/REPLICATION.md). Runs under the `replication` ctest label in the
// Release, ASan, and TSan jobs.

#include "replication/transport.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "replication/wire.h"

namespace seltrig {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  static Frame RecordFrame(uint64_t seq, uint64_t offset,
                           const std::string& payload) {
    Frame frame;
    frame.type = FrameType::kRecord;
    frame.epoch = 3;
    frame.seq = seq;
    frame.offset = offset;
    frame.prev_seq = seq;
    frame.prev_offset = offset > 0 ? offset - 1 : 0;
    frame.payload = payload;
    return frame;
  }

  // The FrameChannel::Wake contract on `receiver`, whose peer is `sender`.
  static void ExpectWakeContract(FrameChannel* sender, FrameChannel* receiver) {
    using Clock = std::chrono::steady_clock;
    // A wake before a long Receive ends it at once...
    receiver->Wake();
    auto start = Clock::now();
    EXPECT_EQ(receiver->Receive(10'000).status().code(),
              ErrorCode::kDeadlineExceeded);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
    // ...and that Receive consumed it: the next one times out normally.
    start = Clock::now();
    EXPECT_EQ(receiver->Receive(20).status().code(),
              ErrorCode::kDeadlineExceeded);
    EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(10));

    // A queued frame comes back ahead of a pending wake, which stays pending.
    ASSERT_TRUE(sender->Send(RecordFrame(1, 24, "queued")).ok());
    receiver->Wake();
    Result<Frame> queued = receiver->Receive(1000);
    ASSERT_TRUE(queued.ok()) << queued.status().message();
    EXPECT_EQ(queued->payload, "queued");
    start = Clock::now();
    EXPECT_EQ(receiver->Receive(10'000).status().code(),
              ErrorCode::kDeadlineExceeded);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));

    // A wake from another thread ends a Receive already blocked.
    std::thread waker([receiver] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      receiver->Wake();
    });
    start = Clock::now();
    EXPECT_EQ(receiver->Receive(10'000).status().code(),
              ErrorCode::kDeadlineExceeded);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
    waker.join();
  }
};

TEST_F(TransportTest, FrameCodecRoundTripsEveryField) {
  Frame frame;
  frame.type = FrameType::kNak;
  frame.epoch = 7;
  frame.seq = 42;
  frame.offset = 1234;
  frame.prev_seq = 41;
  frame.prev_offset = 99;
  frame.name = "gap at tail";
  frame.payload = std::string("\x00\x01\xff raw bytes", 13);

  Result<Frame> decoded = DecodeFrame(EncodeFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->type, FrameType::kNak);
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->offset, 1234u);
  EXPECT_EQ(decoded->prev_seq, 41u);
  EXPECT_EQ(decoded->prev_offset, 99u);
  EXPECT_EQ(decoded->name, frame.name);
  EXPECT_EQ(decoded->payload, frame.payload);
}

TEST_F(TransportTest, FrameCodecRejectsTamperedAndTruncatedBytes) {
  std::string bytes = EncodeFrame(RecordFrame(1, 24, "payload"));

  std::string tampered = bytes;
  tampered[tampered.size() / 2] ^= 0x40;
  EXPECT_EQ(DecodeFrame(tampered).status().code(), ErrorCode::kDataLoss);

  EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, bytes.size() - 1))
                .status()
                .code(),
            ErrorCode::kDataLoss);
  EXPECT_EQ(DecodeFrame("").status().code(), ErrorCode::kDataLoss);

  // Patching the type byte (right after the envelope) breaks either the
  // checksum or, were it recomputed, the known-type check — never decodes.
  std::string patched = EncodeFrame(RecordFrame(1, 24, "x"));
  patched[kFrameEnvelopeSize] = 99;
  EXPECT_FALSE(DecodeFrame(patched).ok());
}

TEST_F(TransportTest, InProcessPairCarriesFramesBothWays) {
  ChannelPair pair = CreateInProcessChannelPair();
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 24, "to follower")).ok());
  Frame ack;
  ack.type = FrameType::kAck;
  ack.seq = 1;
  ASSERT_TRUE(pair.follower_end->Send(ack).ok());

  Result<Frame> at_follower = pair.follower_end->Receive(1000);
  ASSERT_TRUE(at_follower.ok());
  EXPECT_EQ(at_follower->payload, "to follower");

  Result<Frame> at_primary = pair.primary_end->Receive(1000);
  ASSERT_TRUE(at_primary.ok());
  EXPECT_EQ(at_primary->type, FrameType::kAck);

  // Poll on an empty queue times out; close drains to kUnavailable.
  EXPECT_EQ(pair.primary_end->Receive(0).status().code(),
            ErrorCode::kDeadlineExceeded);
  pair.follower_end->Close();
  EXPECT_EQ(pair.primary_end->Receive(1000).status().code(),
            ErrorCode::kUnavailable);
}

TEST_F(TransportTest, InProcessWakeEndsOneReceiveAfterQueuedFrames) {
  ChannelPair pair = CreateInProcessChannelPair();
  ExpectWakeContract(pair.follower_end.get(), pair.primary_end.get());
  ExpectWakeContract(pair.primary_end.get(), pair.follower_end.get());
}

TEST_F(TransportTest, DropFaultDiscardsExactlyTheScheduledSend) {
  ChannelPair pair = CreateInProcessChannelPair();
  fault::ScopedFault drop(fault_points::kReplicationDrop, FaultInjector::FailOnce());
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 24, "dropped")).ok());
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 60, "kept")).ok());
  Result<Frame> received = pair.follower_end->Receive(1000);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->payload, "kept");
  EXPECT_EQ(pair.follower_end->Receive(0).status().code(),
            ErrorCode::kDeadlineExceeded);
}

TEST_F(TransportTest, DuplicateFaultDeliversTheFrameTwice) {
  ChannelPair pair = CreateInProcessChannelPair();
  fault::ScopedFault dup(fault_points::kReplicationDuplicate, FaultInjector::FailOnce());
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 24, "twin")).ok());
  Result<Frame> first = pair.follower_end->Receive(1000);
  Result<Frame> second = pair.follower_end->Receive(1000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->payload, "twin");
  EXPECT_EQ(second->payload, "twin");
}

TEST_F(TransportTest, ReorderFaultSwapsTheHeldFrameWithTheNextSend) {
  ChannelPair pair = CreateInProcessChannelPair();
  fault::ScopedFault reorder(fault_points::kReplicationReorder, FaultInjector::FailOnce());
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 24, "first")).ok());
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 60, "second")).ok());
  Result<Frame> a = pair.follower_end->Receive(1000);
  Result<Frame> b = pair.follower_end->Receive(1000);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->payload, "second");
  EXPECT_EQ(b->payload, "first");
}

TEST_F(TransportTest, TornFaultFailsTheChannelForBothEnds) {
  ChannelPair pair = CreateInProcessChannelPair();
  fault::ScopedFault torn(fault_points::kReplicationTorn, FaultInjector::FailOnce());
  Status sent = pair.primary_end->Send(RecordFrame(1, 24, "torn"));
  EXPECT_FALSE(sent.ok());
  EXPECT_EQ(pair.follower_end->Receive(1000).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_FALSE(pair.primary_end->Send(RecordFrame(1, 60, "after")).ok());
}

TEST_F(TransportTest, DelayFaultStallsTheSendButDeliversIt) {
  ChannelPair pair = CreateInProcessChannelPair();
  fault::ScopedFault delay(fault_points::kReplicationDelay,
                           FaultInjector::DelayNth(1, 30));
  ASSERT_TRUE(pair.primary_end->Send(RecordFrame(1, 24, "late")).ok());
  EXPECT_EQ(FaultInjector::Instance().fires(fault_points::kReplicationDelay), 1u);
  Result<Frame> received = pair.follower_end->Receive(1000);
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received->payload, "late");
}

class SocketTransportTest : public TransportTest {
 protected:
  void SetUp() override {
    TransportTest::SetUp();
    path_ = (std::filesystem::temp_directory_path() /
             ("seltrig_tr_" + std::to_string(::getpid())))
                .string();
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    TransportTest::TearDown();
  }
  std::string path_;
};

TEST_F(SocketTransportTest, SocketPairCarriesFramesBothWays) {
  auto server = LocalSocketServer::Listen(path_);
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto client = ConnectLocalSocket(path_);
  ASSERT_TRUE(client.ok()) << client.status().message();
  auto accepted = (*server)->Accept(1000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().message();

  // A payload far larger than one socket buffer exercises the short-write
  // and buffered-read loops. Send blocks once the kernel buffer fills, so
  // the receiver must drain concurrently.
  std::string big(1 << 20, '\x5a');
  Status send_status;
  std::thread sender(
      [&] { send_status = (*client)->Send(RecordFrame(2, 24, big)); });
  Result<Frame> received = (*accepted)->Receive(5000);
  sender.join();
  ASSERT_TRUE(send_status.ok()) << send_status.message();
  ASSERT_TRUE(received.ok()) << received.status().message();
  EXPECT_EQ(received->payload, big);

  Frame ack;
  ack.type = FrameType::kAck;
  ASSERT_TRUE((*accepted)->Send(ack).ok());
  Result<Frame> back = (*client)->Receive(5000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, FrameType::kAck);

  (*client)->Close();
  EXPECT_EQ((*accepted)->Receive(1000).status().code(), ErrorCode::kUnavailable);
}

TEST_F(SocketTransportTest, TornFaultTearsTheStreamMidFrame) {
  auto server = LocalSocketServer::Listen(path_);
  ASSERT_TRUE(server.ok());
  auto client = ConnectLocalSocket(path_);
  ASSERT_TRUE(client.ok());
  auto accepted = (*server)->Accept(1000);
  ASSERT_TRUE(accepted.ok());

  fault::ScopedFault torn(fault_points::kReplicationTorn, FaultInjector::FailOnce());
  EXPECT_FALSE((*client)->Send(RecordFrame(1, 24, "half of this arrives")).ok());
  // The peer sees a dead stream (possibly after a partial frame): never a
  // successfully decoded frame.
  Result<Frame> received = (*accepted)->Receive(1000);
  EXPECT_FALSE(received.ok());
}

TEST_F(SocketTransportTest, SocketWakeEndsOneReceiveAfterQueuedFrames) {
  auto server = LocalSocketServer::Listen(path_);
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto client = ConnectLocalSocket(path_);
  ASSERT_TRUE(client.ok()) << client.status().message();
  auto accepted = (*server)->Accept(1000);
  ASSERT_TRUE(accepted.ok()) << accepted.status().message();
  ExpectWakeContract(client->get(), accepted->get());
  ExpectWakeContract(accepted->get(), client->get());
}

TEST_F(SocketTransportTest, ConnectToMissingPathFailsCleanly) {
  EXPECT_FALSE(ConnectLocalSocket(path_ + ".nothing").ok());
}

}  // namespace
}  // namespace seltrig
