#ifndef FASTHIST_NET_CLIENT_H_
#define FASTHIST_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "net/frame.h"
#include "service/wire_format.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// Blocking client for the framed ingest protocol: one TCP connection, one
// outstanding request at a time (send a frame, block for the reply).  This
// is the closed-loop half of the bench driver and the test harness — a
// deliberately simple counterpart to the nonblocking server, so the two
// sides cannot share a bug.
//
// Every call returns Status on transport or protocol failure.  A kError
// reply from the server is surfaced as a non-OK Status carrying the
// server's code and message; after a kMalformed error (or any transport
// error) the connection is unusable and further calls fail fast.
class IngestClient {
 public:
  static StatusOr<IngestClient> Connect(const std::string& address,
                                        uint16_t port);

  IngestClient(IngestClient&& other) noexcept;
  IngestClient& operator=(IngestClient&& other) noexcept;
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  // The server's disposition of one batch: the shed and reject accounting
  // per partition (`ack`; ReconstructAccepted rebuilds the accepted
  // subsequence from it exactly).  `rejected` and `rejected_info` are set
  // only by a kRejected reply, which no server sends.
  struct IngestResult {
    bool rejected = false;
    IngestAck ack;
    RejectedInfo rejected_info;
  };
  StatusOr<IngestResult> Ingest(Span<const KeyedSample> samples);

  // One key's snapshot (wire v2/v3 envelope, decoded), fresh as of this
  // call: the server drains every pending queue before exporting.
  StatusOr<ShardSnapshot> PullSnapshot(uint64_t key);

  // One served quantile of one key's summary (q clamped to [0, 1]).
  StatusOr<QuantileReply> Quantile(uint64_t key, double q);

  // The server's self-measured counters and P50/P99/P99.5 latencies.
  StatusOr<ServerStats> Stats();

  // Half-closes the connection (the server flushes this connection's
  // queued samples on EOF).  Destruction does the same.
  void Close();

  bool connected() const { return fd_ >= 0; }

 private:
  explicit IngestClient(int fd) : fd_(fd) {}

  Status SendFrame(FrameType type, Span<const uint8_t> payload);
  // Blocks for the next complete frame; a server kError becomes a non-OK
  // Status (message prefixed with the error code).
  StatusOr<Frame> ReceiveFrame();

  int fd_ = -1;
  FrameParser parser_;
};

}  // namespace fasthist

#endif  // FASTHIST_NET_CLIENT_H_
