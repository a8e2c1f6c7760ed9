// Shard-routing substrate of the sharded serving fleet: a deterministic
// affinity router, a lock-free bounded MPSC submit ring, and the
// per-sample task/ticket pair the rings carry.
//
// FALCC's online phase is embarrassingly partitionable — every sample is
// classified independently (batch ≡ sequential and row-permutation
// invariance are tested contracts), so *which* shard classifies a sample
// can never change the decision, only where the work lands. Routing is
// therefore free to optimize for affinity: samples submitted with the
// same routing key always reach the same shard (stable batching, warm
// per-worker scratch), while keyless traffic spreads round-robin.
//
// The ring is a bounded Vyukov-style MPMC queue used MPSC: any number of
// client threads Push, exactly one shard worker Pops. Each cell carries
// a sequence number; producers claim a slot with one CAS and publish with
// one release store, the consumer reclaims with one release store — no
// locks anywhere on the ring. A full ring fails Push immediately
// (backpressure surfaces as kUnavailable at Submit). A sample submitted
// to an idle shard skips the ring: its submitter flushes it directly
// (see sharded_engine.h).

#ifndef FALCC_SERVE_SHARD_ROUTER_H_
#define FALCC_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/falcc.h"
#include "util/status.h"

namespace falcc::serve {

/// One submitted sample: the copied feature vector, its submit
/// timestamp, and the completion state its ShardTicket waits on. The
/// submitting thread owns one reference (inside the ticket); the task
/// carries a second (`self`) through the ring, adopted and dropped by
/// whoever flushes it after completion — so a caller may drop its ticket
/// without waiting and the task still outlives the flusher's use of it.
/// A sample flushed inline on an idle shard never enters the ring; its
/// ticket is complete when Submit returns.
struct ShardTask {
  std::vector<double> features;
  std::chrono::steady_clock::time_point submitted;

  /// The flusher's owning reference; written by Submit before Push (the
  /// ring's release/acquire pair publishes it), moved out by the flusher.
  std::shared_ptr<ShardTask> self;

  /// Completion state, owned by `mu`.
  std::mutex mu;
  std::condition_variable done_cv;
  bool done = false;
  Status status;
  SampleDecision decision;

  /// Called by the flusher exactly once: publishes the outcome and
  /// wakes the waiter, if any.
  void Complete(Status task_status, const SampleDecision& result);
};

/// A claim on one submitted sample of a sharded engine.
class ShardTicket {
 public:
  ShardTicket() = default;
  explicit ShardTicket(std::shared_ptr<ShardTask> task)
      : task_(std::move(task)) {}

  bool valid() const { return task_ != nullptr; }

  /// Blocks until the sample's batch was classified; returns its
  /// decision or the flush-level error.
  Result<SampleDecision> Wait() const;

 private:
  std::shared_ptr<ShardTask> task_;
};

/// True if the calling thread has waited on a ticket since its previous
/// call; clears that mark. A thread that waits before its next
/// submission is a closed-loop client, not a burst, so the sharded
/// engine lets it flush an idle shard itself (see sharded_engine.h).
bool TakeWaitedSinceLastCall();

/// Bounded lock-free MPSC ring of ShardTask pointers (Vyukov bounded
/// queue, single consumer). Capacity is rounded up to a power of two.
class SubmitRing {
 public:
  explicit SubmitRing(size_t min_capacity);

  SubmitRing(const SubmitRing&) = delete;
  SubmitRing& operator=(const SubmitRing&) = delete;

  /// Multi-producer enqueue; returns false when the ring is full.
  bool Push(ShardTask* task);

  /// Single-consumer dequeue; returns nullptr when the ring is empty.
  ShardTask* Pop();

  size_t capacity() const { return cells_.size(); }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    ShardTask* task = nullptr;
  };

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  alignas(64) std::atomic<size_t> enqueue_pos_{0};
  alignas(64) std::atomic<size_t> dequeue_pos_{0};
};

/// Deterministic shard selection. A routing key maps to a shard via a
/// splitmix64-finalized hash — the same key always lands on the same
/// shard of an N-shard fleet, across engine instances and processes.
/// Keyless submissions rotate round-robin (a single relaxed counter; the
/// only nondeterministic choice, and one that cannot affect decisions).
class ShardRouter {
 public:
  explicit ShardRouter(size_t num_shards);

  size_t num_shards() const { return num_shards_; }

  /// Shard for an explicit affinity key (pure function of key and
  /// shard count).
  size_t RouteKey(uint64_t key) const;

  /// Shard for keyless traffic: round-robin.
  size_t RouteNext();

 private:
  size_t num_shards_;
  std::atomic<uint64_t> round_robin_{0};
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_SHARD_ROUTER_H_
