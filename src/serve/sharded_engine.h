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
// Idle-shard flush: when a shard is idle — nothing in its ring, no
// carried task, no flush in progress, and its last flush classified a
// single row (a multi-row flush means samples arrive faster than one per
// flush, so the next one should join a batch) — the submitting thread
// flushes its own sample and Submit returns an already-complete ticket:
// no ring hop, no worker wake-up, no completion wait. The exception is a
// burst: a thread that, twice in a row and without waiting on a ticket,
// came back to Submit sooner than the call spends validating and copying
// its sample is submitting in a loop, and is queued, so the burst still
// fans out to the workers and batches there. A closed-loop client (it
// waits) and an open-loop pacer (it sleeps between requests; an arrival
// that fell due during its previous inline flush comes back early only
// once) flush idle shards themselves. Each shard has one flush lock;
// whoever holds it (the worker for a whole gather + flush, or a
// submitter that try_locks an idle shard) owns the shard's scratch and
// runs the one FlushBatch. A submitter flushes only after re-checking,
// under the lock, that nothing submitted earlier is pending, so each
// shard still classifies (and notifies the observer) in submission
// order.
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
// Oversubscription guard: every flush, on a worker or a submitting
// thread, pins ParallelFor to one thread via ScopedParallelismCap — N
// shards never fan out N × pool-size threads. Every shard owns one
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
  /// Start the shard worker threads. When false nothing flushes — no
  /// worker runs and submitters never flush an idle shard themselves —
  /// so every accepted sample waits in its ring until Shutdown fails it.
  /// Tests disable this to exercise ring backpressure and drain logic
  /// deterministically.
  bool start_workers = true;
};

/// Online linear model of batch service time: Predict(n) = overhead +
/// n · per_row, both terms exponentially-weighted moving averages fed by
/// Update after every classified batch. Seeds come from the compiled-
/// kernel benchmark numbers so the very first flush decisions are sane;
/// the estimate then tracks the deployed model and hardware. One writer
/// at a time: a shard's model is updated only by whoever holds that
/// shard's flush lock (its worker or a submitter flushing inline). Any
/// thread may read it — GetShardStatus does, without the lock, so a
/// diagnostics poll never delays a flush — and sees each term as some
/// recent estimate.
class ServiceTimeModel {
 public:
  ServiceTimeModel(double seed_row_seconds, double seed_overhead_seconds,
                   double alpha)
      : per_row_(seed_row_seconds), overhead_(seed_overhead_seconds),
        alpha_(alpha) {}

  /// Predicted wall-clock seconds to classify a batch of `rows`.
  double Predict(size_t rows) const {
    return overhead_seconds() +
           static_cast<double>(rows) * per_row_seconds();
  }

  /// Folds one observed (rows, seconds) batch into the estimate.
  void Update(size_t rows, double seconds);

  double per_row_seconds() const {
    return per_row_.load(std::memory_order_relaxed);
  }
  double overhead_seconds() const {
    return overhead_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> per_row_;
  std::atomic<double> overhead_;
  double alpha_;
};

/// Point-in-time view of one shard's adaptive state (diagnostics).
struct ShardStatus {
  size_t shard = 0;
  double ewma_row_seconds = 0.0;
  double ewma_overhead_seconds = 0.0;
  uint64_t flushes = 0;
  uint64_t samples = 0;
  /// Flushes a submitting thread ran itself on an idle shard (a subset
  /// of `flushes` when they succeed).
  uint64_t inline_flushes = 0;
};

/// N-shard serving front end over immutable FalccModel snapshots.
/// Thread-safe: any number of threads may submit, classify, and reload
/// concurrently. Snapshot management (install, validated reload, delta
/// apply, versioning) and the decision observer are the inherited
/// FalccEngine's: every shard serves the store's current snapshot on its
/// next flush, and every shard flush — like a direct ClassifyBatch on
/// the store — notifies the one observer set through SetObserver. A
/// flush runs on a shard worker or, for an idle shard, on the submitting
/// thread, so the observer may be called from client threads.
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

  /// Submits one sample to the round-robin shard. Validates against the
  /// current snapshot on the submitting thread; fails with kUnavailable
  /// when no snapshot is installed, after Shutdown, or when the target
  /// shard's ring is full (backpressure). If the shard is idle (empty
  /// ring, no carried task, no flush in progress, last flush one row) and
  /// this thread is not in a burst (see the header comment), the sample
  /// is classified on this thread and the returned ticket is already
  /// complete; otherwise it is queued for the shard's worker, so a burst
  /// of submissions still fans out across the workers. Either way each
  /// shard classifies its samples in submission order.
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
  /// install and direct-classification accounting. Per-ticket `total` latencies here are
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
    /// Samples submitted and not yet gathered into a batch: ring entries
    /// (counted from just before their push) plus a carried task. Zero is
    /// the "nothing pending" half of the idle test; the 0→1 edge wakes
    /// the worker.
    std::atomic<size_t> occupancy{0};
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::thread worker;
    Metrics metrics;

    /// Whoever holds flush_mu flushes this shard: the worker for a whole
    /// gather + FlushBatch (released before it parks), or a submitter
    /// that found the shard idle (try_lock only). It guards every member
    /// below; its holder is the service model's one writer.
    std::mutex flush_mu;
    ServiceTimeModel service_model;
    ClassifyScratch scratch;
    std::vector<ShardTask*> batch;
    std::vector<std::shared_ptr<ShardTask>> owned;
    std::vector<double> features;
    /// Width-mismatched task, the next batch's first; still counted in
    /// `occupancy`.
    ShardTask* carry = nullptr;
    /// Written under flush_mu, read lock-free by GetShardStatus.
    std::atomic<uint64_t> inline_flushes{0};
    /// Whether the last successful flush classified more than one row;
    /// written under flush_mu, read by the idle test.
    std::atomic<bool> last_flush_batched{false};
  };

  Result<ShardTicket> SubmitToShard(size_t shard,
                                    std::span<const double> features);
  /// Flushes `task` on the calling thread if `shard` is idle; false (and
  /// nothing done) otherwise.
  bool TryFlushInline(Shard* shard, ShardTask* task);
  void WorkerLoop(size_t shard_index);
  /// Fills `shard->batch` from the carry and the ring. Caller holds
  /// flush_mu.
  void Gather(Shard* shard);
  /// Classifies `shard->batch` (all tasks same width) on the current
  /// snapshot and completes every ticket. Caller holds flush_mu.
  void FlushBatch(Shard* shard);

  ShardedEngineOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_done_{false};
  /// Submissions between the stop check and their ring push or inline
  /// flush; Shutdown waits for this to reach zero so no task is stranded
  /// unseen and no inline flush outlives it.
  std::atomic<size_t> in_flight_submits_{0};
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_SHARDED_ENGINE_H_
