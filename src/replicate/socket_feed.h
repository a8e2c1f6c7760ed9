// Socket transport for the delta feed: a publisher serves a feed
// directory, replicas subscribe (DESIGN.md §17).
//
// DirectoryFeed assumes a shared filesystem and, where no inotify watch
// is available, caps propagation lag at the poll interval.
// SocketPublisher/SocketFeed remove both limits while keeping the feed
// contract bit-for-bit: the wire carries the same artifact bytes
// DeltaPublisher writes to disk, framed with sequence/kind/base-hash
// metadata (replicate/wire.h), so DeltaPuller's chain ordering,
// quarantine, and checkpoint recovery work unchanged on either
// transport.
//
// SocketPublisher publishes nothing itself: it serves a directory some
// DeltaPublisher (the monitor's Refresher, or an external process
// behind `falcc_cli replicate serve-feed`) writes into. The writer calls
// ForwardNewArtifacts() after each publish; that scans the directory
// once, raises the publisher-wide high-water sequence and wakes every
// subscriber's sender thread. Each sender keeps one cursor, the highest
// sequence it has handled, and has one send path: Replay(cursor)
// streams the retained feed after it, jumping to the newest checkpoint
// when GC has already removed the next artifact — the late-joiner
// bootstrap, which is also what a slow subscriber gets mid-stream. The
// retained feed is the only buffer; there is no per-subscriber queue. A
// SUBSCRIBE at sequence `s` starts the cursor at `s - 1` (0 = from the
// start). HEARTBEAT frames flow while the feed is idle; EOF announces a
// clean shutdown.
//
// SocketFeed implements DeltaFeed for DeltaPuller: a receiver thread
// maintains the connection (exponential backoff + jitter between
// attempts, liveness timeout when the publisher goes silent) and spools
// ARTIFACT frames into a local directory, so Poll sees exactly what a
// DirectoryFeed over the publisher's directory would see. On
// reconnect it resubscribes from the consumer's last polled position
// (`resume hint`), so a partition never breaks the base-hash chain —
// missing artifacts are replayed, and anything the publisher GC'd
// surfaces as a sequence gap the puller already recovers from.
//
// Endpoints are spelled `tcp://host:port` (port 0 picks one; see
// endpoint()) or `unix:///path/to.sock`.

#ifndef FALCC_REPLICATE_SOCKET_FEED_H_
#define FALCC_REPLICATE_SOCKET_FEED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "replicate/feed.h"
#include "replicate/wire.h"
#include "util/status.h"

namespace falcc::replicate {

/// True when `spec` names a socket endpoint (`tcp://` or `unix://`)
/// rather than a feed directory.
bool IsSocketEndpoint(const std::string& spec);

struct SocketPublisherOptions {
  /// `tcp://host:port` or `unix://path`. tcp port 0 binds an ephemeral
  /// port; read the resolved one back from endpoint().
  std::string listen;
  /// The feed directory to serve (created if missing). Its writer
  /// calls ForwardNewArtifacts() after each publish.
  std::string dir;
  /// Idle gap after which a HEARTBEAT is pushed; keep well under the
  /// subscribers' liveness timeout (SocketFeedOptions).
  double heartbeat_interval_seconds = 0.2;
  /// A send stalled this long marks the subscriber dead.
  double send_timeout_seconds = 10.0;
  /// >0 shrinks SO_SNDBUF on subscriber sockets (backpressure tests).
  int send_buffer_bytes = 0;
};

struct SocketPublisherStats {
  uint64_t accepted = 0;            ///< connections accepted
  uint64_t subscribers = 0;         ///< currently connected
  uint64_t artifacts_sent = 0;      ///< live pushes (excl. catch-up)
  uint64_t catchup_artifacts = 0;   ///< replayed on SUBSCRIBE
  uint64_t heartbeats_sent = 0;
  uint64_t drops_to_checkpoint = 0; ///< mid-stream jumps over GC'd artifacts
  uint64_t send_errors = 0;         ///< connections lost mid-send
};

/// The push side. ForwardNewArtifacts is called by the directory's
/// writer; the accept and sender threads only read the directory.
class SocketPublisher {
 public:
  /// Binds the listener and scans `dir` for its current high-water.
  static Result<std::unique_ptr<SocketPublisher>> Open(
      SocketPublisherOptions options);
  ~SocketPublisher();

  SocketPublisher(const SocketPublisher&) = delete;
  SocketPublisher& operator=(const SocketPublisher&) = delete;

  /// Sends EOF to subscribers, joins all threads, closes the listener.
  /// Idempotent; the feed directory survives for a reopened publisher.
  void Close();

  /// The resolved listen endpoint (tcp port filled in).
  const std::string& endpoint() const { return endpoint_; }

  /// Scans the directory once, raises the high-water sequence to its
  /// newest artifact and wakes every sender. Returns how many readable
  /// artifacts were new.
  Result<size_t> ForwardNewArtifacts();

  SocketPublisherStats Stats() const;

 private:
  struct Subscriber;

  SocketPublisher(SocketPublisherOptions options, int listen_fd,
                  std::string endpoint, uint64_t high_water);

  /// Accepts subscribers and joins the ones whose connection ended.
  void AcceptLoop();
  /// Handshake, then: wait for the high-water to pass the cursor (or a
  /// heartbeat interval), Replay, repeat.
  void ServeSubscriber(Subscriber* subscriber);
  /// Streams the retained feed after the subscriber's cursor, jumping
  /// to the newest checkpoint if GC removed the next artifact, and
  /// leaves the cursor at or above `high_water`. False when the
  /// connection died.
  bool Replay(Subscriber* subscriber, uint64_t high_water, bool catchup);
  bool SendEntry(Subscriber* subscriber, const FeedEntry& entry,
                 bool catchup);
  bool SendBytes(Subscriber* subscriber, const std::string& bytes);

  SocketPublisherOptions options_;
  DirectoryFeed dir_feed_;
  int listen_fd_ = -1;
  std::string endpoint_;
  std::string unix_path_;  ///< unlinked on Close
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};
  bool closed_ = false;

  mutable std::mutex mu_;  ///< subscribers, high-water, stats
  std::condition_variable cv_;  ///< high-water raised or stop
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  uint64_t high_water_ = 0;  ///< newest sequence ForwardNewArtifacts saw
  SocketPublisherStats stats_;
};

struct SocketFeedOptions {
  /// Where received artifacts are spooled (created if missing). Empty:
  /// a fresh temp directory, removed when the feed is destroyed.
  std::string spool_dir;
  /// Reconnect backoff: initial delay, doubling to the max, with
  /// ±jitter so a replica fleet does not reconnect in lockstep.
  double reconnect_initial_seconds = 0.05;
  double reconnect_max_seconds = 2.0;
  double reconnect_jitter = 0.25;
  uint64_t jitter_seed = 1;
  /// No frame (artifact or heartbeat) for this long → the connection is
  /// presumed dead and torn down. Keep well above the publisher's
  /// heartbeat interval.
  double liveness_timeout_seconds = 1.0;
};

struct SocketFeedStats {
  uint64_t connects = 0;           ///< completed handshakes
  uint64_t disconnects = 0;
  uint64_t liveness_timeouts = 0;
  uint64_t decode_errors = 0;      ///< corrupt streams dropped
  uint64_t artifacts_spooled = 0;
  uint64_t redeliveries = 0;       ///< duplicate sequences skipped
  uint64_t heartbeats = 0;
  bool connected = false;
  uint64_t server_next_sequence = 0;  ///< from the latest HELLO
};

/// The subscribe side: a DeltaFeed whose entries arrive over a socket.
/// One consumer per feed (the resume hint tracks a single cursor) —
/// exactly DeltaPuller's ownership model.
class SocketFeed final : public DeltaFeed {
 public:
  /// Returns immediately after validating the endpoint and setting up
  /// the spool; the connection itself is established (and re-
  /// established) by the background receiver, so replicas may start
  /// before their publisher.
  static Result<std::unique_ptr<SocketFeed>> Connect(
      const std::string& endpoint, SocketFeedOptions options = {});
  ~SocketFeed() override;

  /// Spooled entries with sequence > `after_sequence`, ascending. Also
  /// records `after_sequence + 1` as the resume hint for the next
  /// (re)subscribe; a poll from further back than the current
  /// subscription (checkpoint recovery's Poll(0)) forces a resubscribe
  /// so older retained artifacts are replayed.
  Result<std::vector<FeedEntry>> Poll(uint64_t after_sequence) override;

  // WaitForChange/CancelWait: base implementation; the receiver calls
  // NotifyChange() as frames spool.

  SocketFeedStats Stats() const;
  const std::string& spool_dir() const { return spool_dir_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  SocketFeed(std::string endpoint, std::string spool_dir, bool own_spool,
             SocketFeedOptions options);

  void ReceiveLoop();
  /// One connection: subscribe, drain frames until error/timeout/stop.
  /// True once the handshake completed (resets the reconnect backoff).
  bool ServeConnection(int fd);
  void SpoolFrame(const WireFrame& frame);
  void SleepBackoff(double* backoff_seconds);
  bool Stopping() const { return stop_.load(std::memory_order_relaxed); }

  std::string endpoint_;
  std::string spool_dir_;
  bool own_spool_ = false;
  SocketFeedOptions options_;

  std::atomic<bool> stop_{false};
  std::thread receiver_;

  mutable std::mutex mu_;  ///< index, cursors, stats
  std::map<uint64_t, FeedEntry> index_;
  uint64_t resume_hint_ = 0;      ///< next sequence the consumer needs
  uint64_t subscribed_from_ = 0;  ///< sequence the live subscription began at
  bool reconnect_requested_ = false;
  SocketFeedStats stats_;
  uint64_t jitter_state_ = 0;

  std::mutex sleep_mu_;  ///< backoff sleep, woken by stop/reconnect
  std::condition_variable sleep_cv_;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_SOCKET_FEED_H_
