// Sharded serving fleet: the one queued serving path. A ShardedEngine is
// a FalccEngine snapshot store with N independent shards in front of it,
// each owning a lock-free MPSC submit ring drained by a dedicated worker
// into the caller-scratch ClassifyBatch path, one flush per backlog.
// One shard is the single-queue configuration.
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
// Backlog batching: each worker flush takes the shard's whole backlog —
// the carried task, then the ring, up to kMaxBatch rows — and stops
// early only where the feature width changes. So batch size tracks the
// backlog: 1 under idle traffic (µs-scale latency, no artificial delay),
// larger under load. No latency target cuts a batch. FALCC classifies
// every sample on its own, so a flush's size changes its cost, never a
// decision; and a shard is one FIFO server whose tickets complete when
// their flush ends. A cut would finish the rows before it sooner, but
// every row after it would wait for both flushes and pay one more
// flush's overhead: it can lower a median, never the tail.
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
  /// Start the shard worker threads. When false nothing flushes — no
  /// worker runs and submitters never flush an idle shard themselves —
  /// so every accepted sample waits in its ring until Shutdown fails it.
  /// Tests disable this to exercise ring backpressure and drain logic
  /// deterministically.
  bool start_workers = true;
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

  /// One shard's own metrics; `inline_flushes` counts the flushes its
  /// submitters ran themselves.
  MetricsSnapshot GetShardMetrics(size_t shard) const;

  /// Deterministic key → shard mapping (exposed for tests and for
  /// clients that co-locate their own per-shard state).
  size_t RouteKey(uint64_t key) const { return router_.RouteKey(key); }

 private:
  struct Shard {
    explicit Shard(size_t ring_capacity) : ring(ring_capacity) {}

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
    /// below.
    std::mutex flush_mu;
    ClassifyScratch scratch;
    std::vector<ShardTask*> batch;
    std::vector<std::shared_ptr<ShardTask>> owned;
    std::vector<double> features;
    /// Width-mismatched task, the next batch's first; still counted in
    /// `occupancy`.
    ShardTask* carry = nullptr;
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
  /// Fills `shard->batch` with the carry and the ring's backlog, up to
  /// kMaxBatch rows of one width. Caller holds flush_mu.
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
