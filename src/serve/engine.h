// Online serving snapshot store: immutable model snapshots with atomic
// hot-swap plus direct, caller-thread batch classification.
//
// Concurrency model:
//  * The current model lives in a SnapshotPtr (an atomic<shared_ptr>
//    equivalent, see below). Readers take a reference-counted snapshot
//    in a handful of instructions — no blocking mutex on the
//    classification path — and keep classifying on it even if a reload
//    swaps the pointer mid-request; the old model is freed when its
//    last in-flight request drops the reference.
//  * ReloadMapped/Install build and validate the new model entirely
//    off the serving path (on the calling thread), then publish it with
//    a single atomic store.
//  * Queued single-sample traffic goes through ShardedEngine
//    (serve/sharded_engine.h), which is a FalccEngine plus per-shard
//    submit rings and workers; a one-shard ShardedEngine is the
//    single-queue configuration.
//
// Every entry point reports failures as Status (kUnavailable when no
// snapshot is installed); nothing throws.

#ifndef FALCC_SERVE_ENGINE_H_
#define FALCC_SERVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "core/falcc.h"
#include "serve/metrics.h"
#include "util/status.h"

namespace falcc::serve {

/// Subscriber to the engine's decision stream (the monitoring hook).
/// OnDecision is invoked once per successfully classified sample, on
/// whatever thread produced the decision — direct ClassifyBatch callers
/// and shard workers concurrently — so implementations must be
/// thread-safe and cheap: the call sits on the serving hot path.
/// `features` is the sample's original feature vector and is only valid
/// for the duration of the call.
class DecisionObserver {
 public:
  virtual ~DecisionObserver() = default;
  virtual void OnDecision(const SampleDecision& decision,
                          std::span<const double> features,
                          uint64_t snapshot_version) = 0;
};

/// A published snapshot together with the install count it was
/// published under. Read as one unit, so a decision can never be
/// attributed to a version other than the snapshot that made it.
struct VersionedSnapshot {
  std::shared_ptr<const FalccModel> model;
  uint64_t version = 0;
};

/// Atomically swappable (shared_ptr<const FalccModel>, version) pair:
/// guarded by a one-bit spinlock held only for a reference-count bump
/// (load) or a pointer swap plus a counter bump (store) — the same
/// technique libstdc++ uses for std::atomic<std::shared_ptr>. We spell
/// it out instead because libstdc++'s reader path (GCC 12) unlocks with
/// relaxed ordering, which is mutually exclusive in practice but leaves
/// no happens-before edge ThreadSanitizer can verify; acquire/release on
/// both sides makes the hot-swap provably race-free.
class SnapshotPtr {
 public:
  VersionedSnapshot load() const {
    Lock();
    VersionedSnapshot copy{ptr_, version_};
    Unlock();
    return copy;
  }

  uint64_t version() const {
    Lock();
    const uint64_t version = version_;
    Unlock();
    return version;
  }

  /// Publishes `next` under the next version number.
  void store(std::shared_ptr<const FalccModel> next) {
    Lock();
    ptr_.swap(next);
    ++version_;
    Unlock();
    // `next` now holds the superseded snapshot; it is released here,
    // outside the critical section (destruction can be expensive).
  }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // One physical core may be all we have: let the lock holder run.
      std::this_thread::yield();
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const FalccModel> ptr_;
  uint64_t version_ = 0;
};

/// The snapshot store around FalccModel snapshots. Thread-safe: any
/// number of threads may classify and reload concurrently.
class FalccEngine {
 public:
  FalccEngine() = default;
  virtual ~FalccEngine() = default;

  FalccEngine(const FalccEngine&) = delete;
  FalccEngine& operator=(const FalccEngine&) = delete;

  // --- Snapshot management ---------------------------------------------

  /// Publishes `model` as the new immutable snapshot. Compiles nothing:
  /// the model's pool lowered its kernels when each model was added
  /// (ModelPool::Add), so the first request serves from them.
  void Install(FalccModel model);

  /// Loads and validates the `falcc-snapshot-v2` snapshot at `path`
  /// (FalccModel::LoadMapped), then atomically swaps it in. On
  /// failure the current snapshot stays untouched and serving continues
  /// uninterrupted.
  Status ReloadMapped(const std::string& path);

  /// Applies a delta artifact (SaveDelta output) to the installed
  /// snapshot: only the clusters named in the delta are re-validated;
  /// the pool, with its kernels, is shared pointer-identically with the
  /// previous snapshot and nothing is recompiled. Fails without
  /// touching the snapshot when no model is installed, when the delta's
  /// base hash does not match the installed snapshot, or when any delta
  /// section is invalid. Idempotent under at-least-once delivery: a
  /// delta whose result hashes identically to the serving snapshot
  /// succeeds without reinstalling (no version churn).
  Status ApplyDeltaBytes(std::string_view bytes);

  /// Current snapshot (nullptr before the first Install/Reload).
  std::shared_ptr<const FalccModel> snapshot() const {
    return snapshot_.load().model;
  }

  /// Monotonic counter, incremented on every successful install.
  uint64_t snapshot_version() const { return snapshot_.version(); }

  /// Current snapshot and its version, read together — what decision
  /// provenance must use (a separate snapshot_version() call can observe
  /// a later install than the snapshot that served the batch).
  VersionedSnapshot versioned_snapshot() const { return snapshot_.load(); }

  // --- Decision subscription -------------------------------------------

  /// Subscribes `observer` to every decision the engine produces from
  /// now on. Set-once: call before serving traffic (typically right
  /// after the first Install); the engine keeps shared ownership. The
  /// serving paths read the observer with a single acquire load per
  /// batch, so a subscription installed before traffic is race-free.
  void SetObserver(std::shared_ptr<DecisionObserver> observer);

  // --- Classification ---------------------------------------------------

  /// Direct, caller-thread batch classification on the current
  /// snapshot. kUnavailable when no snapshot is installed.
  Result<ClassifyResponse> ClassifyBatch(const ClassifyRequest& request) const;

  const Metrics& metrics() const { return metrics_; }
  MetricsSnapshot GetMetrics() const { return metrics_.Snapshot(); }

 protected:
  /// Fans one successful batch (row-major `features`), served by
  /// snapshot `version`, out to the observer, if any, counting the
  /// notified decisions in `metrics`.
  void NotifyObserver(const ClassifyResponse& response,
                      std::span<const double> features, uint64_t version,
                      Metrics* metrics) const;

 private:
  SnapshotPtr snapshot_;
  /// Owner + raw publication pointer: hot paths load the raw pointer
  /// (acquire) once per batch instead of taking a shared_ptr reference.
  std::shared_ptr<DecisionObserver> observer_;
  std::atomic<DecisionObserver*> observer_raw_{nullptr};
  /// mutable: recording observability from const classification paths
  /// does not change the engine's logical state. Metrics is internally
  /// thread-safe (relaxed atomics only).
  mutable Metrics metrics_;
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_ENGINE_H_
