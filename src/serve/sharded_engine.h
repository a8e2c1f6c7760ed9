// Sharded serving fleet: N independent shards in front of one snapshot
// store, each owning a lock-free MPSC submit ring drained by a dedicated
// worker into the caller-scratch ClassifyBatch path, with SLO-driven
// adaptive batch sizing.
//
// Why shards: the single-queue micro-batcher (FalccEngine's BatchQueue)
// funnels every client through one mutex and one flusher thread, and its
// fixed max_delay flush trades ~65 ms closed-loop p50 for throughput.
// FALCC inherits the decoupled per-(cluster, group) structure of
// decoupled classifiers, so serving partitions perfectly: shards share
// nothing but the immutable model snapshot, scale linearly with cores,
// and routing can never change a decision — only where it is computed.
// Decisions are bit-identical to the single-sample loop at any shard
// count (CheckShardedMatchesSingleLoop is part of the invariant suite
// and the fuzz harness).
//
// Adaptive batching: each shard worker drains whatever its ring holds —
// so batch size tracks the backlog, collapsing to 1 under idle traffic
// (µs-scale latency, no artificial delay) and growing under load — but
// caps the batch the moment the *oldest* gathered ticket's predicted
// completion (per-shard EWMA service model, seeded from the
// compiled-kernel bench numbers) would breach its submit-time + SLO
// deadline. Under overload, when the deadline is already unmeetable, the
// cap degrades to "one SLO's worth of service per flush" so throughput
// is preserved instead of collapsing into tiny late batches.
//
// Oversubscription guard: each worker pins ParallelFor to
// `worker_parallelism` (default 1) via ScopedParallelismCap — N shard
// workers never fan out N × pool-size threads. Every worker owns one
// ClassifyScratch, so steady-state flushes allocate nothing in the
// kernel.

#ifndef FALCC_SERVE_SHARDED_ENGINE_H_
#define FALCC_SERVE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/falcc.h"
#include "serve/batch_queue.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/shard_router.h"
#include "util/status.h"

namespace falcc::serve {

struct ShardedEngineOptions {
  /// Number of shards; 0 = hardware_concurrency (min 1).
  size_t num_shards = 0;
  /// Per-shard submit-ring capacity (rounded up to a power of two).
  /// A full ring rejects Submit with kUnavailable — the backpressure
  /// contract, mirroring BatchQueue's max_pending.
  size_t ring_capacity = 1 << 14;
  /// Hard upper bound on one flush, whatever the SLO math allows.
  size_t max_batch = 8192;
  /// Per-ticket latency objective, submit → decision available. The
  /// adaptive flush sizes batches so the oldest ticket's predicted
  /// completion stays inside this budget.
  double slo_seconds = 1e-3;
  /// EWMA blend factor of the per-shard service-time model.
  double ewma_alpha = 0.125;
  /// Service-model seeds: per-row cost and fixed per-flush overhead.
  /// Defaults come from BENCH_infer's compiled-kernel end-to-end numbers
  /// so the first flushes are sized sanely before feedback kicks in.
  double seed_row_seconds = 2e-6;
  double seed_overhead_seconds = 20e-6;
  /// ParallelFor cap inside shard workers (ScopedParallelismCap).
  /// Default 1: shard parallelism comes from the fleet, not from nested
  /// kernel fan-out.
  size_t worker_parallelism = 1;
  /// Start the shard worker threads. Tests disable this to exercise
  /// ring backpressure and drain logic deterministically.
  bool start_workers = true;
};

/// Point-in-time view of one shard's adaptive state (diagnostics).
struct ShardStatus {
  size_t shard = 0;
  double ewma_row_seconds = 0.0;
  double ewma_overhead_seconds = 0.0;
  uint64_t flushes = 0;
  uint64_t samples = 0;
};

/// N-shard serving front end over immutable FalccModel snapshots.
/// Thread-safe: any number of threads may submit, classify, and reload
/// concurrently. Snapshot management (install, validated reload,
/// compile-before-publish, versioning) is delegated to an inner
/// FalccEngine whose single-queue flusher is disabled.
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Snapshot management ---------------------------------------------

  /// Publishes `model` as the new immutable snapshot (all shards see it
  /// on their next flush).
  void Install(FalccModel model);

  /// Loads, validates, and swaps in a serialized model; a failed load
  /// keeps every shard serving the current snapshot.
  Status ReloadFromFile(const std::string& path);

  /// Zero-copy variant: serves v2 compiled kernels straight out of a
  /// read-only file mapping (see FalccEngine::ReloadMapped).
  Status ReloadMapped(const std::string& path) {
    return engine_.ReloadMapped(path);
  }

  /// Applies a delta artifact to the installed snapshot; the compiled
  /// kernels are shared pointer-identically across the swap (see
  /// FalccEngine::ApplyDeltaBytes). Shards pick up the new snapshot on
  /// their next flush.
  Status ApplyDeltaBytes(std::string_view bytes) {
    return engine_.ApplyDeltaBytes(bytes);
  }

  std::shared_ptr<const FalccModel> snapshot() const {
    return engine_.snapshot();
  }
  uint64_t snapshot_version() const { return engine_.snapshot_version(); }

  /// The inner snapshot store. Installs and reloads through it are what
  /// every shard serves (shards read its snapshot per flush), which is
  /// how the monitor's Refresher hot-swaps the whole fleet at once.
  /// Classifying through it directly bypasses the shards.
  FalccEngine* snapshot_store() { return &engine_; }

  // --- Decision subscription -------------------------------------------

  /// Fleet-wide decision fan-in: subscribes `observer` to every decision
  /// any shard flushes, plus direct classifications through the snapshot
  /// store. Set-once, before serving traffic — the same discipline as
  /// FalccEngine::SetObserver (which keeps ownership). One thread-safe
  /// observer (e.g. the monitor's DecisionLog, a multi-writer ring)
  /// watches the whole fleet.
  void SetDecisionObserver(std::shared_ptr<DecisionObserver> observer);

  // --- Classification ---------------------------------------------------

  /// Enqueues one sample on the round-robin shard. Validates against the
  /// current snapshot on the submitting thread; fails with kUnavailable
  /// when no snapshot is installed, after Shutdown, or when the target
  /// shard's ring is full (backpressure).
  Result<ShardTicket> Submit(std::span<const double> features);

  /// Same, with deterministic affinity: samples sharing `routing_key`
  /// always land on the same shard (stable batching for per-entity
  /// streams). Routing never affects the decision, only the shard.
  Result<ShardTicket> SubmitWithKey(uint64_t routing_key,
                                    std::span<const double> features);

  /// Synchronous convenience: Submit + Wait.
  Result<SampleDecision> Classify(std::span<const double> features);

  /// Stops intake, drains every shard's ring (already-submitted tickets
  /// still complete), and joins the workers. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  // --- Introspection ----------------------------------------------------

  size_t num_shards() const { return shards_.size(); }

  /// Fleet-level metrics: all shards merged, plus the inner engine's
  /// install/compile accounting. Per-ticket `total` latencies here are
  /// true submit-to-completion times.
  MetricsSnapshot GetMetrics() const;

  /// One shard's own metrics.
  MetricsSnapshot GetShardMetrics(size_t shard) const;

  /// One shard's adaptive-batching state.
  ShardStatus GetShardStatus(size_t shard) const;

  /// Deterministic key → shard mapping (exposed for tests and for
  /// clients that co-locate their own per-shard state).
  size_t RouteKey(uint64_t key) const { return router_.RouteKey(key); }

 private:
  struct Shard {
    explicit Shard(size_t ring_capacity, const ShardedEngineOptions& options)
        : ring(ring_capacity),
          service_model(options.seed_row_seconds,
                        options.seed_overhead_seconds, options.ewma_alpha) {}

    SubmitRing ring;
    /// Approximate ring occupancy; drives the empty→non-empty wakeup.
    std::atomic<size_t> occupancy{0};
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::thread worker;
    Metrics metrics;
    /// Owned by the worker thread; snapshotted under status_mu for
    /// GetShardStatus.
    ServiceTimeModel service_model;
    mutable std::mutex status_mu;
  };

  Result<ShardTicket> SubmitToShard(size_t shard,
                                    std::span<const double> features);
  void WorkerLoop(size_t shard_index);
  /// Classifies `batch` (all tasks same width) on the current snapshot
  /// and completes every ticket. Returns the observed service seconds.
  void FlushBatch(Shard* shard, std::vector<ShardTask*>* batch,
                  std::vector<double>* features, ClassifyScratch* scratch,
                  std::vector<std::shared_ptr<ShardTask>>* owned);

  ShardedEngineOptions options_;
  FalccEngine engine_;  ///< snapshot store + validation; flusher disabled
  /// Raw fan-in pointer for the shard flush path; owned by engine_ (set
  /// through SetDecisionObserver, which forwards ownership there).
  std::atomic<DecisionObserver*> observer_raw_{nullptr};
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_done_{false};
  /// Submissions between the stop check and their ring push; Shutdown
  /// waits for this to reach zero so no task is stranded unseen.
  std::atomic<size_t> in_flight_submits_{0};
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_SHARDED_ENGINE_H_
