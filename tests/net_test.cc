// The net/ layer's contracts: frame codecs total over hostile bytes, the
// parser reassembling arbitrary chunkings, the event loop's timers and
// cross-thread Post, the latency recorder against a sorted-vector
// reference, and ShardedIngestServer end to end over real loopback sockets
// at 1 and 4 loops — including the two-tier overload policy's
// bit-identical-replay guarantee, live-socket frame fuzzing, hostile and
// vanishing peers, and the graceful-shutdown drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/latency_recorder.h"
#include "net/sharded_ingest_server.h"
#include "service/wire_format.h"
#include "store/partitioned_store.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"
#include "util/clock.h"
#include "util/random.h"

namespace fasthist {
namespace {

// --- Shared helpers ---------------------------------------------------------

// Every server test runs at one loop (the acceptor and the only partition
// share a thread) and at four (batches cross loops through the hand-off
// rings, replies hop back from the key's owner loop).
constexpr int kLoopCounts[] = {1, 4};

std::unique_ptr<ShardedIngestServer> StartServer(
    const IngestServerOptions& base, int num_loops) {
  ShardedIngestServerOptions options;
  options.base = base;
  options.num_loops = num_loops;
  auto server = ShardedIngestServer::Create(options);
  CHECK_OK(server);
  std::unique_ptr<ShardedIngestServer> owned = std::move(server).value();
  CHECK(owned->Start().ok());
  return owned;
}

IngestClient ConnectTo(const ShardedIngestServer& server) {
  auto client = IngestClient::Connect("127.0.0.1", server.port());
  CHECK_OK(client);
  return std::move(client).value();
}

std::vector<KeyedSample> MakeBatch(Rng* rng, uint64_t key, size_t n,
                                   int64_t domain) {
  std::vector<KeyedSample> batch(n);
  for (KeyedSample& sample : batch) {
    sample.key = key;
    sample.value = rng->UniformInt(domain);
  }
  return batch;
}

// Byte-level snapshot equality through the canonical wire encoding — the
// same "bit-identical" definition the store and service suites use, pushed
// through one more (lossless) codec.
bool SnapshotsBitIdentical(const ShardSnapshot& a, const ShardSnapshot& b) {
  return EncodeShardSnapshot(a) == EncodeShardSnapshot(b);
}

// --- Frame codec + parser ---------------------------------------------------

TEST(NetFrameRoundTripsAndParserReassembles) {
  // One frame of every payload type, concatenated into a single stream.
  std::vector<KeyedSample> samples = {{42, 7}, {42, 300}, {9001, 12}};
  IngestAck ack;
  ack.accepted = 2;
  ack.shed = 1;
  ack.keep_shift = 1;
  ack.rejected = 4;
  ack.partitions.push_back(PartitionDisposition{0, 0, 2, 0, 0});
  ack.partitions.push_back(PartitionDisposition{3, 1, 0, 1, 4});
  RejectedInfo rejected;
  rejected.queue_depth = 4096;
  rejected.hard_watermark = 1024;
  QuantileQuery query;
  query.key = 42;
  query.q = 0.99;
  QuantileReply reply;
  reply.value = 123;
  reply.error_budget = 0.03125;
  reply.num_samples = 5000;
  ServerStats stats;
  stats.frames_received = 17;
  stats.samples_shed = 3;
  stats.ingest_p99_us = 250.5;
  stats.ingest_count = 12;
  stats.num_loops = 4;
  stats.partitions.push_back(PartitionStats{2, 96, 4096, 100, 3, 7, 5, 1});
  ErrorReply error;
  error.code = ErrorCode::kUnknownKey;
  error.message = "no such key";

  std::vector<uint8_t> stream;
  auto append = [&stream](std::vector<uint8_t> frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  append(EncodeFrame(FrameType::kIngest, EncodeIngestPayload(samples)));
  append(EncodeFrame(FrameType::kIngestAck, EncodeIngestAck(ack)));
  append(EncodeFrame(FrameType::kRejected, EncodeRejectedInfo(rejected)));
  append(EncodeFrame(FrameType::kSnapshotPull, EncodeKeyPayload(42)));
  append(EncodeFrame(FrameType::kQuantileQuery, EncodeQuantileQuery(query)));
  append(EncodeFrame(FrameType::kQuantileReply, EncodeQuantileReply(reply)));
  append(EncodeFrame(FrameType::kStatsReply, EncodeServerStats(stats)));
  append(EncodeFrame(FrameType::kError, EncodeErrorReply(error)));

  // The exact wire bytes, every field little-endian: a round trip alone
  // cannot see an encoder and a decoder that agree on the wrong byte
  // order.  Each frame is its header (magic "FHn1", type u32, payload
  // length u64), then its payload.
  const char* const kPinnedStream =
      // kIngest: count 3, then (key, value) pairs.
      "46486e3101000000380000000000000003000000000000002a00000000000000"
      "07000000000000002a000000000000002c010000000000002923000000000000"
      "0c00000000000000"
      // kIngestAck: totals, 2 partition entries.
      "46486e3102000000600000000000000002000000000000000100000000000000"
      "0100000004000000000000000200000000000000000000000200000000000000"
      "0000000000000000000000000000000003000000010000000000000000000000"
      "01000000000000000400000000000000"
      // kRejected
      "46486e3103000000100000000000000000100000000000000004000000000000"
      // kSnapshotPull
      "46486e310400000008000000000000002a00000000000000"
      // kQuantileQuery: key 42, q 0.99 (IEEE-754 bits).
      "46486e310600000010000000000000002a00000000000000ae47e17a14aeef3f"
      // kQuantileReply
      "46486e310700000018000000000000007b00000000000000000000000000a03f"
      "8813000000000000"
      // kStatsReply: counters, latencies, num_loops, 1 partition entry.
      "46486e3109000000dc0000000000000011000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000030000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000506f400000000000000000"
      "0c00000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000040000000100000002000000600000000000000000100000"
      "0000000064000000000000000300000000000000070000000000000005000000"
      "000000000100000000000000"
      // kError: code 2, length 11, "no such key".
      "46486e310a0000001700000000000000020000000b000000000000006e6f2073"
      "756368206b6579";
  CHECK(testing::ToHex(stream) == kPinnedStream);

  // Feed the stream in awkward 7-byte chunks: the parser must reassemble
  // frames across arbitrary TCP segmentation.
  FrameParser parser;
  std::vector<Frame> frames;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = std::min<size_t>(7, stream.size() - pos);
    parser.Consume(Span<const uint8_t>(stream.data() + pos, chunk));
    pos += chunk;
    Frame frame;
    while (parser.Next(&frame) == FrameParser::Result::kFrame) {
      frames.push_back(frame);
    }
  }
  CHECK(frames.size() == 8);
  CHECK(parser.buffered() == 0);

  CHECK(frames[0].type == FrameType::kIngest);
  auto decoded_samples = DecodeIngestPayload(frames[0].payload);
  CHECK_OK(decoded_samples);
  CHECK(decoded_samples->size() == 3);
  CHECK((*decoded_samples)[1].key == 42 && (*decoded_samples)[1].value == 300);

  auto decoded_ack = DecodeIngestAck(frames[1].payload);
  CHECK_OK(decoded_ack);
  CHECK(decoded_ack->accepted == 2 && decoded_ack->shed == 1 &&
        decoded_ack->keep_shift == 1);
  CHECK(decoded_ack->rejected == 4);
  CHECK(decoded_ack->partitions.size() == 2);
  CHECK(decoded_ack->partitions[0].partition == 0 &&
        decoded_ack->partitions[0].accepted == 2);
  CHECK(decoded_ack->partitions[1].partition == 3 &&
        decoded_ack->partitions[1].keep_shift == 1 &&
        decoded_ack->partitions[1].shed == 1 &&
        decoded_ack->partitions[1].rejected == 4);

  auto decoded_rejected = DecodeRejectedInfo(frames[2].payload);
  CHECK_OK(decoded_rejected);
  CHECK(decoded_rejected->queue_depth == 4096 &&
        decoded_rejected->hard_watermark == 1024);

  auto decoded_key = DecodeKeyPayload(frames[3].payload);
  CHECK_OK(decoded_key);
  CHECK(*decoded_key == 42);

  auto decoded_query = DecodeQuantileQuery(frames[4].payload);
  CHECK_OK(decoded_query);
  CHECK(decoded_query->key == 42);
  CHECK_NEAR(decoded_query->q, 0.99, 0.0);

  auto decoded_reply = DecodeQuantileReply(frames[5].payload);
  CHECK_OK(decoded_reply);
  CHECK(decoded_reply->value == 123 && decoded_reply->num_samples == 5000);
  CHECK_NEAR(decoded_reply->error_budget, 0.03125, 0.0);

  auto decoded_stats = DecodeServerStats(frames[6].payload);
  CHECK_OK(decoded_stats);
  CHECK(decoded_stats->frames_received == 17 &&
        decoded_stats->samples_shed == 3 && decoded_stats->ingest_count == 12);
  CHECK_NEAR(decoded_stats->ingest_p99_us, 250.5, 0.0);
  CHECK(decoded_stats->num_loops == 4);
  CHECK(decoded_stats->partitions.size() == 1);
  CHECK(decoded_stats->partitions[0].partition == 2 &&
        decoded_stats->partitions[0].queue_depth == 96 &&
        decoded_stats->partitions[0].max_queue_depth == 4096 &&
        decoded_stats->partitions[0].samples_accepted == 100 &&
        decoded_stats->partitions[0].samples_shed == 3 &&
        decoded_stats->partitions[0].samples_rejected == 7 &&
        decoded_stats->partitions[0].flushes_size == 5 &&
        decoded_stats->partitions[0].flushes_deadline == 1);

  auto decoded_error = DecodeErrorReply(frames[7].payload);
  CHECK_OK(decoded_error);
  CHECK(decoded_error->code == ErrorCode::kUnknownKey);
  CHECK(decoded_error->message == "no such key");
}

TEST(NetFrameDecodeRejectsCorruptInput) {
  const std::vector<KeyedSample> samples = {{1, 2}, {3, 4}};
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kIngest, EncodeIngestPayload(samples));

  // Every strict prefix of a valid frame is "need more", never a frame and
  // never UB — truncation mid-header and mid-payload both included.
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameParser parser;
    parser.Consume(Span<const uint8_t>(frame.data(), len));
    Frame out;
    CHECK(parser.Next(&out) == FrameParser::Result::kNeedMore);
  }

  // Hostile bits in the header: flipping any magic/type byte (0..7) or any
  // high length byte (10..15) must poison the stream.  (Flipping the two
  // low length bytes just declares a longer — still capped — payload, which
  // is legitimately "need more".)
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[i] ^= 0xFF;
    FrameParser parser;
    parser.Consume(corrupt);
    Frame out;
    const FrameParser::Result result = parser.Next(&out);
    if (i < 8 || i >= 10) {
      CHECK(result == FrameParser::Result::kMalformed);
      // Poisoned parsers stay poisoned: more bytes do not resynchronize.
      parser.Consume(frame);
      CHECK(parser.Next(&out) == FrameParser::Result::kMalformed);
    } else {
      CHECK(result == FrameParser::Result::kNeedMore);
    }
  }

  // An in-cap length that disagrees with the payload's own count fails the
  // typed decode (trailing bytes), not the parser.
  {
    std::vector<uint8_t> padded = EncodeIngestPayload(samples);
    padded.push_back(0);
    CHECK(!DecodeIngestPayload(padded).ok());
  }

  // A hostile sample count cannot size an allocation: the count is checked
  // against the bytes present first.
  {
    std::vector<uint8_t> hostile(8, 0xFF);  // count = 2^64 - 1, no samples
    CHECK(!DecodeIngestPayload(hostile).ok());
  }

  // A count whose byte size wraps: (2^60 + 1) * 16 is 16 mod 2^64, which
  // is exactly the bytes present.  Only the ordered check (count against
  // remaining / 16 first, then the exact length) refuses it; the decode
  // loop trusts those two checks and has no per-field check of its own.
  {
    std::vector<uint8_t> wrapping(8 + 16, 0x01);
    const uint64_t count = (uint64_t{1} << 60) + 1;
    for (size_t i = 0; i < 8; ++i) {
      wrapping[i] = static_cast<uint8_t>(count >> (8 * i));
    }
    CHECK(!DecodeIngestPayload(wrapping).ok());
  }

  // Same for the ACK's per-partition disposition count (bytes 28..31, after
  // accepted + shed + keep_shift + rejected): a huge count with one actual
  // entry present must fail the bytes-present check, not allocate.
  {
    IngestAck sharded_ack{5, 3, 1};
    sharded_ack.partitions.push_back(PartitionDisposition{0, 1, 5, 3, 0});
    std::vector<uint8_t> hostile = EncodeIngestAck(sharded_ack);
    hostile[28] = 0xFF;
    hostile[29] = 0xFF;
    hostile[30] = 0xFF;
    hostile[31] = 0xFF;
    CHECK(!DecodeIngestAck(hostile).ok());
  }

  // ReconstructAccepted strides by 1 << keep_shift in 64 bits, so a shift
  // of 64 or more is refused at decode, in the totals and in any entry.
  {
    CHECK(!DecodeIngestAck(EncodeIngestAck(IngestAck{1, 0, 64})).ok());
    IngestAck entry_ack{1, 0, 0};
    entry_ack.partitions.push_back(PartitionDisposition{0, 64, 1, 0, 0});
    CHECK(!DecodeIngestAck(EncodeIngestAck(entry_ack)).ok());
    // 63, the widest stride, decodes, and only the partition's first
    // sample (subsequence index 0) is reconstructed as accepted.
    IngestAck widest{1, 7, 63};
    widest.partitions.push_back(PartitionDisposition{0, 63, 1, 7, 0});
    auto decoded = DecodeIngestAck(EncodeIngestAck(widest));
    CHECK_OK(decoded);
    const std::vector<KeyedSample> batch = {
        {5, 10}, {6, 11}, {5, 12}, {7, 13}, {8, 14}, {5, 15}, {9, 16}, {6, 17}};
    const std::vector<KeyedSample> kept =
        ReconstructAccepted(batch, *decoded, 1);
    CHECK(kept.size() == 1);
    CHECK(kept[0].key == 5 && kept[0].value == 10);
  }

  // Every typed decoder rejects every strict prefix and one trailing byte.
  const std::vector<std::vector<uint8_t>> payloads = {
      EncodeIngestPayload(samples),
      EncodeIngestAck(IngestAck{5, 3, 1}),
      EncodeRejectedInfo(RejectedInfo{10, 8}),
      EncodeKeyPayload(77),
      EncodeQuantileQuery(QuantileQuery{77, 0.5}),
      EncodeQuantileReply(QuantileReply{1, 0.1, 2}),
      EncodeServerStats(ServerStats{}),
      EncodeErrorReply(ErrorReply{ErrorCode::kInternal, "x"}),
  };
  const auto decode = [](size_t which, Span<const uint8_t> bytes) -> bool {
    switch (which) {
      case 0: return DecodeIngestPayload(bytes).ok();
      case 1: return DecodeIngestAck(bytes).ok();
      case 2: return DecodeRejectedInfo(bytes).ok();
      case 3: return DecodeKeyPayload(bytes).ok();
      case 4: return DecodeQuantileQuery(bytes).ok();
      case 5: return DecodeQuantileReply(bytes).ok();
      case 6: return DecodeServerStats(bytes).ok();
      default: return DecodeErrorReply(bytes).ok();
    }
  };
  for (size_t which = 0; which < payloads.size(); ++which) {
    const std::vector<uint8_t>& good = payloads[which];
    CHECK(decode(which, good));
    for (size_t len = 0; len < good.size(); ++len) {
      CHECK(!decode(which, Span<const uint8_t>(good.data(), len)));
    }
    std::vector<uint8_t> padded = good;
    padded.push_back(0);
    CHECK(!decode(which, padded));
  }

  // Semantic rejections: NaN quantile rank, unknown error code.
  {
    QuantileQuery nan_query;
    nan_query.key = 1;
    nan_query.q = std::nan("");
    CHECK(!DecodeQuantileQuery(EncodeQuantileQuery(nan_query)).ok());
    std::vector<uint8_t> bad_code = EncodeErrorReply(
        ErrorReply{ErrorCode::kInternal, ""});
    bad_code[0] = 99;
    CHECK(!DecodeErrorReply(bad_code).ok());
  }
}

// --- Event loop -------------------------------------------------------------

TEST(NetEventLoopRunsTimersAndPostedTasks) {
  auto loop_or = EventLoop::Create();
  CHECK_OK(loop_or);
  EventLoop& loop = **loop_or;
  std::thread runner([&loop] { loop.Run(); });

  std::atomic<int> posted_runs{0};
  loop.Post([&posted_runs] { posted_runs.fetch_add(1); });

  // Timers are loop-thread state, so they are scheduled from a posted task;
  // they must fire in deadline order (not scheduling order), and a
  // cancelled timer must not fire at all.
  std::vector<int> order;  // loop-thread only until the join below
  std::promise<void> done;
  loop.Post([&] {
    const uint64_t now = MonotonicNanos();
    loop.ScheduleAt(now + 20'000'000, [&order] { order.push_back(2); });
    loop.ScheduleAt(now + 5'000'000, [&order] { order.push_back(1); });
    const uint64_t cancelled =
        loop.ScheduleAt(now + 10'000'000, [&order] { order.push_back(99); });
    loop.Cancel(cancelled);
    loop.ScheduleAt(now + 30'000'000, [&done] { done.set_value(); });
  });

  CHECK(done.get_future().wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready);
  loop.Quit();
  runner.join();

  CHECK(posted_runs.load() == 1);
  CHECK(order.size() == 2);
  CHECK(order[0] == 1 && order[1] == 2);
}

// SetInterest skips the syscall when the interest set is unchanged, which
// is only sound because readiness is level-triggered.  On both backends,
// over a socketpair: an unread byte keeps reporting readability while the
// callback re-requests the same interest, switching to write interest
// reports writability, and switching back stops it.  A hang-up is reported
// as an error even while the interest set is empty (a server connection
// whose input waits behind an off-loop reply has none).
TEST(NetEventLoopSetInterestStaysLevelTriggered) {
  std::vector<EventLoopBackend> backends = {EventLoopBackend::kPoll};
  if (EventLoop::EpollSupported()) backends.push_back(EventLoopBackend::kEpoll);
  for (const EventLoopBackend backend : backends) {
    auto loop_or = EventLoop::Create(backend);
    CHECK_OK(loop_or);
    EventLoop& loop = **loop_or;
    int fds[2];
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    // Loop-thread state until the join below.
    int readable = 0;
    int writable = 0;
    int writable_after_switch_back = 0;
    bool switched_back = false;
    bool calls_ok = true;
    std::promise<void> done;
    const auto on_event = [&](EventLoop::IoEvent event) {
      if (event.writable) {
        ++writable;
        if (switched_back) ++writable_after_switch_back;
        if (writable == 3) {
          calls_ok &= loop.SetInterest(fds[0], true, false).ok();
          switched_back = true;
          loop.ScheduleAt(MonotonicNanos() + 50'000'000,
                          [&done] { done.set_value(); });
        }
        return;
      }
      if (!event.readable) return;
      ++readable;
      calls_ok &= loop.SetInterest(fds[0], true, false).ok();  // unchanged
      if (readable == 3) {
        char byte = 0;
        calls_ok &= read(fds[0], &byte, 1) == 1;
        calls_ok &= loop.SetInterest(fds[0], false, true).ok();
      }
    };
    std::thread runner([&loop] { loop.Run(); });
    loop.Post([&] {
      calls_ok &= loop.Watch(fds[0], true, false, on_event).ok();
    });
    const char byte = 1;
    CHECK(write(fds[1], &byte, 1) == 1);
    const bool finished =
        done.get_future().wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready;
    loop.Quit();
    runner.join();
    close(fds[0]);
    close(fds[1]);
    CHECK(finished);
    CHECK(calls_ok);
    CHECK(readable == 3);
    CHECK(writable == 3);
    CHECK(writable_after_switch_back == 0);

    // A fresh loop: the one above still watches the closed fd number.
    auto hangup_loop_or = EventLoop::Create(backend);
    CHECK_OK(hangup_loop_or);
    EventLoop& hangup_loop = **hangup_loop_or;
    CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    std::promise<bool> hung_up;
    std::thread hangup_runner([&hangup_loop] { hangup_loop.Run(); });
    hangup_loop.Post([&] {
      calls_ok &= hangup_loop
                      .Watch(fds[0], /*want_read=*/false, /*want_write=*/false,
                             [&](EventLoop::IoEvent event) {
                               hangup_loop.Unwatch(fds[0]);
                               hung_up.set_value(event.error);
                             })
                      .ok();
      close(fds[1]);
    });
    auto reported = hung_up.get_future();
    const bool hangup_seen =
        reported.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
    hangup_loop.Quit();
    hangup_runner.join();
    close(fds[0]);
    CHECK(hangup_seen && reported.get());
    CHECK(calls_ok);
  }
}

// --- Latency recorder -------------------------------------------------------

// The recorded distribution's quantiles must agree with a sorted-vector
// reference in *rank*: the empirical CDF at the reported value sits within
// a small band of the requested rank (the summary's guarantee is in rank
// space, so that is the right yardstick — value-space equality would be
// asking a 64-piece histogram to memorize 4000 points).
TEST(NetLatencyRecorderMatchesSortedReference) {
  auto recorder_or = LatencyRecorder::Create();
  CHECK_OK(recorder_or);
  LatencyRecorder& recorder = *recorder_or;

  CHECK(recorder.count() == 0);
  auto empty = recorder.Stats();
  CHECK_OK(empty);
  CHECK(empty->count == 0);
  CHECK_NEAR(empty->p50_us, 0.0, 0.0);

  Rng rng(20260807);
  const size_t n = 4000;
  std::vector<int64_t> reference_ticks;
  reference_ticks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Uniform over [0, 1 ms) in 100 ns ticks, nanos a multiple of the tick
    // so the conversion is exact.
    const int64_t ticks = rng.UniformInt(10000);
    reference_ticks.push_back(ticks);
    recorder.Record(static_cast<uint64_t>(ticks) * 100);
  }
  std::sort(reference_ticks.begin(), reference_ticks.end());
  CHECK(recorder.count() == static_cast<int64_t>(n));

  auto stats = recorder.Stats();
  CHECK_OK(stats);
  CHECK(stats->count == static_cast<int64_t>(n));
  CHECK(stats->p50_us <= stats->p99_us && stats->p99_us <= stats->p995_us);

  const auto rank_of = [&reference_ticks](double value_us) {
    const double value_ticks = value_us * LatencyRecorder::kTicksPerMicro;
    size_t below = 0;
    while (below < reference_ticks.size() &&
           static_cast<double>(reference_ticks[below]) <= value_ticks) {
      ++below;
    }
    return static_cast<double>(below) /
           static_cast<double>(reference_ticks.size());
  };
  CHECK_NEAR(rank_of(stats->p50_us), 0.50, 0.10);
  CHECK_NEAR(rank_of(stats->p99_us), 0.99, 0.10);
  CHECK(rank_of(stats->p995_us) >= 0.90);

  // Out-of-domain durations clamp into the top bucket instead of failing.
  recorder.Record(uint64_t{10} * 1000 * 1000 * 1000);  // 10 s >> domain
  CHECK(recorder.count() == static_cast<int64_t>(n) + 1);
  auto clamped = recorder.Stats();
  CHECK_OK(clamped);
  // The extra top-bucket sample can only push the tail up — but p99.5 of a
  // 64-piece summary sits inside the summary's rank-error band, where the
  // estimate interpolates across a wide sparse piece, so "up" is only true
  // to within that band.  Relative slack, not absolute: the one new sample
  // must not collapse the tail estimate.
  CHECK(clamped->p995_us >= stats->p995_us * 0.5);
  CHECK_NEAR(rank_of(clamped->p50_us), 0.50, 0.10);
}

// --- Loopback end to end ----------------------------------------------------

TEST(NetLoopbackIngestQueryEndToEnd) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    options.shard_id = 7;
    options.flush_batch = 8;           // exercise the size trigger
    options.flush_deadline_us = 5000;  // and the deadline trigger
    auto server = StartServer(options, num_loops);
    const int64_t domain = options.archetype.domain_size;

    // Two clients with disjoint key sets: per-key store state depends only
    // on that key's subsequence, so the offline replay below is exact no
    // matter how the two connections' flushes interleave.
    IngestClient alice = ConnectTo(*server);
    IngestClient bob = ConnectTo(*server);

    Rng rng(4242);
    std::vector<KeyedSample> alice_sent;
    std::vector<KeyedSample> bob_sent;
    uint64_t batches = 0;
    for (int round = 0; round < 12; ++round) {
      for (uint64_t key : {uint64_t{1}, uint64_t{2}}) {
        const std::vector<KeyedSample> batch =
            MakeBatch(&rng, key, 11, domain);
        auto result = alice.Ingest(batch);
        CHECK_OK(result);
        CHECK(result->ack.accepted == batch.size());
        CHECK(result->ack.shed == 0 && result->ack.rejected == 0);
        alice_sent.insert(alice_sent.end(), batch.begin(), batch.end());
        ++batches;
      }
      const std::vector<KeyedSample> batch = MakeBatch(&rng, 3, 5, domain);
      auto result = bob.Ingest(batch);
      CHECK_OK(result);
      CHECK(result->ack.rejected == 0);
      bob_sent.insert(bob_sent.end(), batch.begin(), batch.end());
      ++batches;
    }

    // Offline replay: one store fed the same per-connection streams.
    auto offline = SummaryStore::Create(options.archetype);
    CHECK_OK(offline);
    CHECK(offline->AddBatch(alice_sent).ok());
    CHECK(offline->AddBatch(bob_sent).ok());

    for (uint64_t key : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
      auto pulled = alice.PullSnapshot(key);
      CHECK_OK(pulled);
      auto expected = offline->ExportKeyedSnapshot(key, options.shard_id);
      CHECK_OK(expected);
      CHECK(SnapshotsBitIdentical(*pulled, *expected));

      auto served = alice.Quantile(key, 0.5);
      CHECK_OK(served);
      auto expected_quantile = offline->Quantile(key, 0.5);
      CHECK_OK(expected_quantile);
      CHECK(served->value == expected_quantile->value);
      CHECK(served->error_budget == 0.0);
      CHECK(served->num_samples == expected_quantile->num_samples);
    }

    // Semantic errors leave the connection serving.
    auto unknown = bob.Quantile(999, 0.5);
    CHECK(!unknown.ok());
    CHECK(unknown.status().message().find("UNKNOWN_KEY") !=
          std::string::npos);
    CHECK(bob.connected());
    auto still_alive = bob.Quantile(3, 0.5);
    CHECK_OK(still_alive);

    // A partial batch below the size trigger must flush by deadline.
    const std::vector<KeyedSample> tail = MakeBatch(&rng, 3, 3, domain);
    CHECK_OK(bob.Ingest(tail));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    auto stats = alice.Stats();
    CHECK_OK(stats);
    CHECK(stats->num_loops == static_cast<uint32_t>(num_loops));
    CHECK(stats->connections_accepted == 2);
    CHECK(stats->batches_ingested == batches + 1);
    CHECK(stats->samples_offered ==
          alice_sent.size() + bob_sent.size() + tail.size());
    CHECK(stats->samples_accepted == stats->samples_offered);
    CHECK(stats->samples_shed == 0 && stats->batches_rejected == 0);
    CHECK(stats->flushes_size > 0);
    CHECK(stats->flushes_deadline > 0);
    // The server measured itself: every ingest and query was recorded.
    CHECK(stats->ingest_count == static_cast<int64_t>(batches + 1));
    CHECK(stats->query_count > 0);
    CHECK(stats->ingest_p50_us > 0.0);
    CHECK(stats->ingest_p50_us <= stats->ingest_p99_us);

    CHECK(server->Shutdown().ok());
  }
}

// --- Overload: shed, reject, and still replay bit-identically ---------------

TEST(NetServerShedsAndRejectsUnderOverload) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    options.shard_id = 3;
    options.soft_watermark = 64;
    options.hard_watermark = 256;
    options.flush_batch = 1u << 20;        // never size-flush:
    options.flush_deadline_us = 60000000;  // the depth only grows
    auto server = StartServer(options, num_loops);
    const int64_t domain = options.archetype.domain_size;

    // One key, so every batch lands whole in one partition and that
    // partition walks keep-all -> thinned -> rejected.
    IngestClient client = ConnectTo(*server);
    Rng rng(99);
    std::vector<KeyedSample> accepted_replay;
    bool saw_shed = false;
    bool saw_reject = false;
    uint64_t offered = 0;
    for (int round = 0; round < 40; ++round) {
      const std::vector<KeyedSample> batch = MakeBatch(&rng, 7, 32, domain);
      offered += batch.size();
      auto result = client.Ingest(batch);
      CHECK_OK(result);
      const IngestAck& ack = result->ack;
      CHECK(ack.partitions.size() == 1);
      CHECK(ack.partitions[0].partition ==
            PartitionOfKey(7, static_cast<uint32_t>(num_loops)));
      if (ack.rejected != 0) {
        // A rejection refuses the partition's whole slice and says so in
        // the ACK.
        saw_reject = true;
        CHECK(ack.rejected == batch.size());
        CHECK(ack.accepted == 0 && ack.shed == 0);
        continue;
      }
      // Reconstruct the accepted subsequence from the recorded stride — the
      // whole point of deterministic systematic thinning.
      const std::vector<KeyedSample> kept =
          ReconstructAccepted(batch, ack, static_cast<uint32_t>(num_loops));
      const uint64_t stride = uint64_t{1} << ack.keep_shift;
      CHECK(kept.size() == (batch.size() + stride - 1) / stride);
      CHECK(ack.accepted == kept.size());
      CHECK(ack.shed == batch.size() - kept.size());
      accepted_replay.insert(accepted_replay.end(), kept.begin(), kept.end());
      if (ack.keep_shift > 0) saw_shed = true;
    }
    CHECK(saw_shed);
    CHECK(saw_reject);

    auto live_stats = client.Stats();
    CHECK_OK(live_stats);
    CHECK(live_stats->samples_shed > 0);
    CHECK(live_stats->batches_rejected > 0);
    CHECK(live_stats->samples_offered == offered);
    CHECK(live_stats->samples_accepted == accepted_replay.size());
    // The bounded-memory guarantee: the partition never holds more than
    // the hard watermark plus one (thinned) batch.
    CHECK(live_stats->max_queue_depth < options.hard_watermark + 32);

    CHECK(server->Shutdown().ok());

    // The drained store is bit-identical to an offline replay of exactly
    // the accepted (non-shed, non-rejected) samples.
    auto offline = SummaryStore::Create(options.archetype);
    CHECK_OK(offline);
    CHECK(offline->AddBatch(accepted_replay).ok());
    auto server_snapshot = server->store().ExportKeyedSnapshot(7, 3);
    CHECK_OK(server_snapshot);
    auto offline_snapshot = offline->ExportKeyedSnapshot(7, 3);
    CHECK_OK(offline_snapshot);
    CHECK(SnapshotsBitIdentical(*server_snapshot, *offline_snapshot));
    auto count = server->store().NumSamples(7);
    CHECK_OK(count);
    CHECK(*count == static_cast<int64_t>(accepted_replay.size()));
  }
}

// --- Live-socket frame fuzz -------------------------------------------------

int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  CHECK(fd >= 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  CHECK(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0);
  return fd;
}

// Sends `bytes`, half-closes, and drains everything the server says until
// EOF.  Returning at all proves the server neither crashed nor left the
// connection dangling.
std::vector<uint8_t> RawExchange(uint16_t port, Span<const uint8_t> bytes) {
  const int fd = RawConnect(port);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    CHECK(n > 0);
    sent += static_cast<size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  std::vector<uint8_t> received;
  uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    received.insert(received.end(), buffer, buffer + n);
  }
  close(fd);
  return received;
}

// Parses the server's reply bytes; if any frames came back they must be
// well-formed, and the server's verdict on hostile input must be a typed
// kError frame — never garbage, never silence-then-crash.
bool RepliesWithError(const std::vector<uint8_t>& received, ErrorCode* code) {
  FrameParser parser;
  parser.Consume(received);
  Frame frame;
  while (parser.Next(&frame) == FrameParser::Result::kFrame) {
    if (frame.type == FrameType::kError) {
      auto error = DecodeErrorReply(frame.payload);
      CHECK_OK(error);
      if (code != nullptr) *code = error->code;
      return true;
    }
  }
  return false;
}

TEST(NetFrameFuzzServerSurvivesHostileBytes) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    auto server = StartServer(options, num_loops);
    const int64_t domain = options.archetype.domain_size;

    Rng rng(1337);
    const std::vector<KeyedSample> samples = {{5, 1}, {5, 2}, {6, 3}};
    const std::vector<uint8_t> valid =
        EncodeFrame(FrameType::kIngest, EncodeIngestPayload(samples));

    // Every-prefix truncation: the server must treat any cut point (mid-
    // header, mid-payload, clean boundary) as an orderly or empty stream.
    for (size_t len = 0; len <= valid.size(); ++len) {
      const std::vector<uint8_t> received =
          RawExchange(server->port(), Span<const uint8_t>(valid.data(), len));
      FrameParser parser;  // whatever came back must at least be well-formed
      parser.Consume(received);
      Frame frame;
      while (parser.Next(&frame) == FrameParser::Result::kFrame) {
      }
      CHECK(parser.buffered() == 0);
    }

    // Hostile bits: corrupt header fields must earn a typed kMalformed error
    // and a dropped connection.
    size_t hostile_cases = 0;
    for (const size_t index : {size_t{0}, size_t{5}, size_t{15}}) {
      std::vector<uint8_t> corrupt = valid;
      corrupt[index] ^= 0xFF;
      const std::vector<uint8_t> received =
          RawExchange(server->port(), corrupt);
      ErrorCode code = ErrorCode::kInternal;
      CHECK(RepliesWithError(received, &code));
      CHECK(code == ErrorCode::kMalformed);
      ++hostile_cases;
    }
    // A well-framed payload whose content lies about its sample count.
    {
      std::vector<uint8_t> payload = EncodeIngestPayload(samples);
      payload[0] = 0xEE;  // count no longer matches the bytes present
      const std::vector<uint8_t> received = RawExchange(
          server->port(), EncodeFrame(FrameType::kIngest, payload));
      ErrorCode code = ErrorCode::kInternal;
      CHECK(RepliesWithError(received, &code));
      CHECK(code == ErrorCode::kMalformed);
      ++hostile_cases;
    }
    // An out-of-domain sample value: decodes fine, violates the store's
    // contract, must be refused before it can poison an AddBatch.
    {
      const std::vector<KeyedSample> out_of_domain = {{5, domain + 100}};
      const std::vector<uint8_t> received = RawExchange(
          server->port(),
          EncodeFrame(FrameType::kIngest, EncodeIngestPayload(out_of_domain)));
      ErrorCode code = ErrorCode::kInternal;
      CHECK(RepliesWithError(received, &code));
      CHECK(code == ErrorCode::kMalformed);
      ++hostile_cases;
    }
    // A reply-direction frame arriving as a request.
    {
      const std::vector<uint8_t> received = RawExchange(
          server->port(),
          EncodeFrame(FrameType::kIngestAck, EncodeIngestAck(IngestAck{})));
      ErrorCode code = ErrorCode::kInternal;
      CHECK(RepliesWithError(received, &code));
      CHECK(code == ErrorCode::kMalformed);
      ++hostile_cases;
    }
    // Seeded garbage streams.
    for (int round = 0; round < 8; ++round) {
      std::vector<uint8_t> garbage(64 +
                                   static_cast<size_t>(rng.UniformInt(64)));
      for (uint8_t& byte : garbage) {
        byte = static_cast<uint8_t>(rng.UniformInt(256));
      }
      const std::vector<uint8_t> received =
          RawExchange(server->port(), garbage);
      // Random bytes essentially never spell the magic, so the server should
      // answer kMalformed; at minimum it must close cleanly (RawExchange
      // returning proves that).
      ErrorCode code = ErrorCode::kInternal;
      if (RepliesWithError(received, &code)) {
        CHECK(code == ErrorCode::kMalformed);
      }
      ++hostile_cases;
    }

    // After all of that the server still serves a fresh, honest client.
    IngestClient client = ConnectTo(*server);
    const std::vector<KeyedSample> batch = MakeBatch(&rng, 11, 16, domain);
    auto result = client.Ingest(batch);
    CHECK_OK(result);
    CHECK(result->ack.accepted == batch.size());
    auto reply = client.Quantile(11, 0.5);
    CHECK_OK(reply);
    auto stats = client.Stats();
    CHECK_OK(stats);
    CHECK(stats->connections_dropped >= 7);  // every typed-error case above
    CHECK(static_cast<size_t>(stats->connections_accepted) >= hostile_cases);

    CHECK(server->Shutdown().ok());
  }
}

// A peer that vanishes right after sending traffic makes the server's ack
// write fail (EPIPE/ECONNRESET) inside SendFrame, destroying the
// connection while HandleIngest still holds a reference — the
// use-after-free this guards against lived exactly there.  Pipelining many
// batches and then closing makes the failure deterministic: the server
// drains them all in ONE readable event (so poll never gets a chance to
// report the error state first), its first ack to the closed socket
// provokes an RST, and a later ack write in the same drain loop hits the
// error path mid-HandleIngest.  ASan turns any regression into a hard
// failure.
TEST(NetServerSurvivesPeerResetDuringIngestReply) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    auto server = StartServer(options, num_loops);
    const int64_t domain = options.archetype.domain_size;
    Rng rng(31337);

    for (int round = 0; round < 8; ++round) {
      std::vector<uint8_t> bytes;
      for (int b = 0; b < 16; ++b) {
        const std::vector<KeyedSample> batch =
            MakeBatch(&rng, 5, 64, domain);
        const std::vector<uint8_t> frame =
            EncodeFrame(FrameType::kIngest, EncodeIngestPayload(batch));
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      }
      const int fd = RawConnect(server->port());
      size_t sent = 0;
      while (sent < bytes.size()) {
        const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        CHECK(n > 0);
        sent += static_cast<size_t>(n);
      }
      // Close with the acks unread: data arriving for the orphaned socket
      // (the server's first ack) draws an RST, so the server's later ack
      // writes in the same drain loop fail.
      close(fd);
    }

    // The server must still serve a fresh, honest client.
    IngestClient client = ConnectTo(*server);
    const std::vector<KeyedSample> batch = MakeBatch(&rng, 11, 16, domain);
    auto result = client.Ingest(batch);
    CHECK_OK(result);
    CHECK(result->ack.accepted == batch.size());
    auto reply = client.Quantile(11, 0.5);
    CHECK_OK(reply);
    CHECK(server->Shutdown().ok());
  }
}

// The write-side bound: a client that sends requests but never reads the
// replies must be dropped once the server's unwritten reply backlog passes
// max_reply_backlog — not buffered indefinitely.
TEST(NetServerBoundsReplyBacklog) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    options.max_frame_payload = 1024;
    options.max_reply_backlog = 2048;
    auto server = StartServer(options, num_loops);

    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    CHECK(fd >= 0);
    // A tiny receive buffer (set before connect so the window is negotiated
    // small) keeps the kernel from absorbing replies the test never reads.
    const int rcvbuf = 4096;
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    CHECK(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0);

    // Pump stats requests (each reply ~168 bytes) and never read.  Replies
    // fill the kernel buffers, then the server's `out`, then trip the cap:
    // the server closes and the pending RST fails any still-blocked send.
    // 50k requests is ~8 MB of replies — past any plausible kernel
    // buffering, so a server that (wrongly) buffers forever cannot pass.
    const std::vector<uint8_t> stats_request =
        EncodeFrame(FrameType::kStats, Span<const uint8_t>());
    bool server_dropped_us = false;
    for (int i = 0; i < 50000 && !server_dropped_us; ++i) {
      size_t sent = 0;
      while (sent < stats_request.size()) {
        const ssize_t n = send(fd, stats_request.data() + sent,
                               stats_request.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          server_dropped_us = true;  // EPIPE/ECONNRESET: the cap fired
          break;
        }
        sent += static_cast<size_t>(n);
      }
    }
    // The send side can outrun a (sanitizer-slowed) server — the whole
    // request stream fits in the local kernel send buffer — so a clean send
    // loop proves nothing yet.  The verdict is the RST: wait for it.
    if (!server_dropped_us) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = 0;  // POLLERR/POLLHUP are reported regardless
      for (int waited_ms = 0; waited_ms < 30000; waited_ms += 100) {
        if (poll(&pfd, 1, 100) > 0 &&
            (pfd.revents & (POLLERR | POLLHUP)) != 0) {
          server_dropped_us = true;
          break;
        }
      }
    }
    CHECK(server_dropped_us);
    close(fd);

    // The drop was surgical: the server still serves, and counted it.
    IngestClient client = ConnectTo(*server);
    auto stats = client.Stats();
    CHECK_OK(stats);
    CHECK(stats->connections_dropped >= 1);
    CHECK(server->Shutdown().ok());
  }
}

// --- Graceful shutdown ------------------------------------------------------

TEST(NetGracefulShutdownDrainsAndMatchesOfflineReplay) {
  for (const int num_loops : kLoopCounts) {
    IngestServerOptions options;
    options.shard_id = 12;
    options.flush_batch = 1u << 20;        // nothing flushes by size...
    options.flush_deadline_us = 60000000;  // ...or by deadline: Shutdown's
    auto server = StartServer(options, num_loops);  // drain does all of it
    const int64_t domain = options.archetype.domain_size;

    IngestClient alice = ConnectTo(*server);
    IngestClient bob = ConnectTo(*server);
    Rng rng(2718);
    std::vector<KeyedSample> alice_sent;
    std::vector<KeyedSample> bob_sent;
    for (int round = 0; round < 6; ++round) {
      for (uint64_t key : {uint64_t{21}, uint64_t{22}}) {
        const std::vector<KeyedSample> batch =
            MakeBatch(&rng, key, 9, domain);
        auto result = alice.Ingest(batch);
        CHECK_OK(result);
        CHECK(result->ack.shed == 0 && result->ack.rejected == 0);
        alice_sent.insert(alice_sent.end(), batch.begin(), batch.end());
      }
      const std::vector<KeyedSample> batch = MakeBatch(&rng, 23, 7, domain);
      auto result = bob.Ingest(batch);
      CHECK_OK(result);
      bob_sent.insert(bob_sent.end(), batch.begin(), batch.end());
    }

    // Shut down with both connections open and every sample still queued:
    // the drain must flush the partial batches before the loops stop.
    CHECK(server->Shutdown().ok());
    const ServerStats stats = server->stats();
    CHECK(stats.flushes_size == 0);  // nothing reached the size trigger
    CHECK(stats.samples_accepted == alice_sent.size() + bob_sent.size());

    auto offline = SummaryStore::Create(options.archetype);
    CHECK_OK(offline);
    CHECK(offline->AddBatch(alice_sent).ok());
    CHECK(offline->AddBatch(bob_sent).ok());
    for (uint64_t key : {uint64_t{21}, uint64_t{22}, uint64_t{23}}) {
      auto drained = server->store().ExportKeyedSnapshot(key, options.shard_id);
      CHECK_OK(drained);
      auto expected = offline->ExportKeyedSnapshot(key, options.shard_id);
      CHECK_OK(expected);
      CHECK(SnapshotsBitIdentical(*drained, *expected));
      auto drained_count = server->store().NumSamples(key);
      auto expected_count = offline->NumSamples(key);
      CHECK_OK(drained_count);
      CHECK_OK(expected_count);
      CHECK(*drained_count == *expected_count);
    }
  }
}

}  // namespace
}  // namespace fasthist
