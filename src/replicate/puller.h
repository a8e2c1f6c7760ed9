// DeltaPuller: a serving replica's feed consumer.
//
// Tracks the engine's current ContentHash and applies feed artifacts in
// sequence order straight to the engine, by the kind the feed reports:
// deltas as incremental hot-swaps (FalccEngine::ApplyDeltaBytes over a
// mapped view of the artifact), checkpoints as full reloads
// (FalccEngine::ReloadMapped). An in-order checkpoint whose manifest
// content hash equals the serving snapshot's — the one a publisher
// writes right after a delta this replica applied — is consumed without
// a reload. Bounded
// out-of-order arrivals wait in a buffer until the sequence gap in front
// of them fills; a gap that persists, a delta whose base-hash chain does
// not match the serving snapshot, or a corrupt artifact all route to the
// same fallback: quarantine what is broken and recover via a full reload
// of the newest loadable checkpoint, with exponential backoff + jitter
// between attempts so a degraded feed is retried, not hammered.
//
// The cardinal rule is that the engine never stops serving: every
// failure mode leaves the last-good snapshot installed and returns
// through PollOnce's report instead of an error. Redelivered deltas are
// success no-ops (FalccModel::ApplyDeltaBytes is idempotent), so an
// at-least-once feed is safe.
//
// PollOnce is the deterministic unit tests and replay drivers use;
// Start() runs the same loop on a background thread for live replicas
// (concurrent with classification — the hot-swap path is lock-free).

#ifndef FALCC_REPLICATE_PULLER_H_
#define FALCC_REPLICATE_PULLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "replicate/feed.h"
#include "serve/engine.h"
#include "util/status.h"

namespace falcc::replicate {

struct DeltaPullerOptions {
  /// Polls to wait on a sequence gap (with no checkpoint to jump to)
  /// before falling back to recovery.
  size_t gap_patience_polls = 2;
  /// Recovery retry backoff: initial delay, doubling to a 2 s cap, with
  /// ±25 % jitter (seeded here) so a replica fleet does not retry in
  /// lockstep.
  double backoff_initial_seconds = 0.05;
  uint64_t jitter_seed = 1;
  /// Background-thread mode: delay between polls.
  double poll_interval_seconds = 0.02;
};

/// What one PollOnce did. All failure modes are counters here — PollOnce
/// itself never fails, because the engine must keep serving regardless.
struct PullReport {
  size_t entries_seen = 0;     ///< new artifacts entering the buffer
  size_t deltas_applied = 0;   ///< incremental hot-swaps (incl. no-ops)
  size_t full_reloads = 0;     ///< checkpoint loads taken in-order
  size_t recoveries = 0;       ///< fallback full reloads that succeeded
  size_t quarantined = 0;      ///< artifacts quarantined this poll
  size_t chain_breaks = 0;     ///< base-hash mismatches hit this poll
  bool recovery_pending = false;  ///< still degraded; will retry
  std::string last_error;      ///< most recent failure, for diagnostics
};

/// Cumulative counters (and the puller's current position).
struct DeltaPullerStats {
  uint64_t polls = 0;
  uint64_t entries_seen = 0;
  uint64_t deltas_applied = 0;
  uint64_t full_reloads = 0;
  uint64_t recoveries = 0;
  uint64_t quarantined = 0;
  uint64_t chain_breaks = 0;
  uint64_t gap_fallbacks = 0;
  uint64_t feed_errors = 0;
  uint64_t retries = 0;        ///< recovery attempts that found nothing
  uint64_t last_sequence = 0;  ///< feed position (last consumed entry)
  size_t buffered = 0;
  bool recovery_pending = false;
  std::string last_error;
};

class DeltaPuller {
 public:
  /// The engine must outlive the puller; the feed is owned.
  DeltaPuller(serve::FalccEngine* engine, std::unique_ptr<DeltaFeed> feed,
              DeltaPullerOptions options = {});
  ~DeltaPuller();

  DeltaPuller(const DeltaPuller&) = delete;
  DeltaPuller& operator=(const DeltaPuller&) = delete;

  /// Polls the feed once and applies everything applicable in order.
  /// Serialized internally, so manual calls and the background thread
  /// compose; never throws, never fails — see PullReport.
  PullReport PollOnce();

  /// Starts the background polling thread (idempotent).
  void Start();
  /// Stops and joins it (idempotent; also run by the destructor).
  void Stop();

  /// Content hash of the snapshot the engine is serving right now;
  /// kUnavailable before the first install.
  Result<uint64_t> ServingHash() const;

  DeltaPullerStats Stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  void PollLoop();
  /// Applies buffered entries in sequence order until blocked.
  void Advance(PullReport* report);
  /// Bootstrap path: no snapshot installed yet — only a checkpoint can
  /// seed the replica.
  void BootstrapFromBuffer(PullReport* report);
  /// Consumes `sequence`: advances the cursor and drops superseded
  /// buffer entries.
  void ConsumeThrough(uint64_t sequence);
  /// Fallback: reload the newest loadable checkpoint, under backoff.
  void TryRecover(PullReport* report, Clock::time_point now);
  void ScheduleRetry(Clock::time_point now);
  void Quarantine(const FeedEntry& entry, PullReport* report,
                  const std::string& why);
  bool HasSnapshot() const;
  /// Maps the delta at `path` and applies it to the engine's snapshot.
  Status ApplyDelta(const std::string& path);
  /// Whether the checkpoint at `path` has the content hash of the
  /// snapshot being served: only its header and manifest are read.
  bool ServesCheckpoint(const std::string& path) const;

  serve::FalccEngine* engine_ = nullptr;
  std::unique_ptr<DeltaFeed> feed_;
  DeltaPullerOptions options_;

  mutable std::mutex mu_;  ///< serializes PollOnce + guards state below
  std::map<uint64_t, FeedEntry> buffer_;
  std::set<std::string> quarantined_;
  uint64_t last_sequence_ = 0;
  size_t gap_polls_ = 0;
  bool need_recovery_ = false;
  double backoff_seconds_ = 0.0;
  Clock::time_point next_retry_{};
  uint64_t jitter_state_ = 0;
  DeltaPullerStats stats_;

  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread thread_;
  bool stop_ = false;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_PULLER_H_
