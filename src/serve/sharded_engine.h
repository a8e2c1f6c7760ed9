// Sharded serving fleet: the one queued serving path. A ShardedEngine is
// a FalccEngine snapshot store with N independent shards in front of it,
// each owning a lock-free MPSC submit ring drained by a dedicated worker
// into the caller-scratch ClassifyBatch path, with SLO-driven adaptive
// batch sizing. One shard is the single-queue configuration.
//
// Why shards: FALCC inherits the decoupled per-(cluster, group) structure
// of decoupled classifiers, so serving partitions perfectly: shards share
// nothing but the immutable model snapshot, and routing can never change
// a decision — only where it is computed.
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
// Oversubscription guard: each worker pins ParallelFor to one thread
// via ScopedParallelismCap — N shard workers never fan out N ×
// pool-size threads. Every worker owns one ClassifyScratch, so
// steady-state flushes allocate nothing in the kernel.

#ifndef FALCC_SERVE_SHARDED_ENGINE_H_
#define FALCC_SERVE_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/falcc.h"
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
  /// contract.
  size_t ring_capacity = 1 << 14;
  /// Per-ticket latency objective, submit → decision available. The
  /// adaptive flush sizes batches so the oldest ticket's predicted
  /// completion stays inside this budget.
  double slo_seconds = 1e-3;
  /// Start the shard worker threads. Tests disable this to exercise
  /// ring backpressure and drain logic deterministically.
  bool start_workers = true;
};

/// Online linear model of batch service time: Predict(n) = overhead +
/// n · per_row, both terms exponentially-weighted moving averages fed by
/// Update after every classified batch. Seeds come from the compiled-
/// kernel benchmark numbers so the very first flush decisions are sane;
/// the estimate then tracks the deployed model and hardware. Not
/// thread-safe — owned by one shard worker.
class ServiceTimeModel {
 public:
  ServiceTimeModel(double seed_row_seconds, double seed_overhead_seconds,
                   double alpha)
      : per_row_(seed_row_seconds), overhead_(seed_overhead_seconds),
        alpha_(alpha) {}

  /// Predicted wall-clock seconds to classify a batch of `rows`.
  double Predict(size_t rows) const {
    return overhead_ + static_cast<double>(rows) * per_row_;
  }

  /// Folds one observed (rows, seconds) batch into the estimate.
  void Update(size_t rows, double seconds);

  double per_row_seconds() const { return per_row_; }
  double overhead_seconds() const { return overhead_; }

 private:
  double per_row_;
  double overhead_;
  double alpha_;
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
/// concurrently. Snapshot management (install, validated reload, delta
/// apply, versioning) and the decision observer are the inherited
/// FalccEngine's: every shard serves the store's current snapshot on its
/// next flush, and every shard flush — like a direct ClassifyBatch on
/// the store — notifies the one observer set through SetObserver.
class ShardedEngine : public FalccEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine() override;

  /// The snapshot store, i.e. this engine seen as a FalccEngine.
  /// Installs and reloads through it are what every shard serves, which
  /// is how the monitor's Refresher hot-swaps the whole fleet at once.
  /// ClassifyBatch through it bypasses the shards.
  FalccEngine* snapshot_store() { return this; }

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

  /// Fleet-level metrics: all shards merged, plus the snapshot store's
  /// install/compile and direct-classification accounting. Per-ticket `total` latencies here are
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
    explicit Shard(size_t ring_capacity);

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
  /// and completes every ticket.
  void FlushBatch(Shard* shard, std::vector<ShardTask*>* batch,
                  std::vector<double>* features, ClassifyScratch* scratch,
                  std::vector<std::shared_ptr<ShardTask>>* owned);

  ShardedEngineOptions options_;
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
