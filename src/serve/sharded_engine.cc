#include "serve/sharded_engine.h"

#include <chrono>
#include <utility>

#include "util/parallel.h"

namespace falcc::serve {

namespace {

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Upper bound on the rows of one flush.
constexpr size_t kMaxBatch = 8192;

/// The calling thread's burst test state: when its previous Submit
/// returned, and whether that call already came back early.
thread_local std::chrono::steady_clock::time_point last_submit_return;
thread_local bool last_submit_early = false;

size_t DefaultNumShards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options),
      router_(options.num_shards == 0 ? DefaultNumShards()
                                      : options.num_shards) {
  const size_t n = router_.num_shards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(options_.ring_capacity));
  }
  if (options_.start_workers) {
    for (size_t i = 0; i < n; ++i) {
      shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
    }
  }
}

ShardedEngine::~ShardedEngine() { Shutdown(); }

Result<ShardTicket> ShardedEngine::Submit(std::span<const double> features) {
  return SubmitToShard(router_.RouteNext(), features);
}

Result<ShardTicket> ShardedEngine::SubmitWithKey(
    uint64_t routing_key, std::span<const double> features) {
  return SubmitToShard(router_.RouteKey(routing_key), features);
}

Result<SampleDecision> ShardedEngine::Classify(
    std::span<const double> features) {
  Result<ShardTicket> ticket = Submit(features);
  if (!ticket.ok()) return ticket.status();
  return ticket.value().Wait();
}

Result<ShardTicket> ShardedEngine::SubmitToShard(
    size_t shard_index, std::span<const double> features) {
  const auto entry = std::chrono::steady_clock::now();
  Shard& shard = *shards_[shard_index];
  shard.metrics.AddRequests(1);
  // Announce the in-flight submission *before* the stop check: Shutdown
  // stores `stopping_` and then waits for this counter to hit zero, so
  // every submission that passed the check below has pushed (and is
  // visible to the workers' final drain) or finished its inline flush by
  // the time the drain starts.
  in_flight_submits_.fetch_add(1, std::memory_order_acq_rel);
  if (stopping_.load(std::memory_order_acquire)) {
    in_flight_submits_.fetch_sub(1, std::memory_order_release);
    shard.metrics.AddErrors(1);
    return Status::Unavailable("ShardedEngine: shut down, no new submissions");
  }
  const std::shared_ptr<const FalccModel> snapshot = this->snapshot();
  if (snapshot == nullptr) {
    in_flight_submits_.fetch_sub(1, std::memory_order_release);
    shard.metrics.AddErrors(1);
    return Status::Unavailable("ShardedEngine: no model snapshot installed");
  }
  // Validate on the submitting thread: rejects never occupy a ring slot,
  // and validation cost parallelizes across clients.
  const Status valid = snapshot->ValidateSample(features);
  if (!valid.ok()) {
    in_flight_submits_.fetch_sub(1, std::memory_order_release);
    shard.metrics.AddErrors(1);
    return valid;
  }
  auto task = std::make_shared<ShardTask>();
  task->features.assign(features.begin(), features.end());
  task->submitted = std::chrono::steady_clock::now();
  task->self = task;  // the flusher's reference, dropped after completion
  // A thread that comes back sooner than this call took to get here, twice
  // in a row without waiting on a ticket, is submitting in a loop: its
  // burst is queued, for the shard workers to fan out and batch, instead
  // of being flushed row by row on this thread. One early return alone is
  // an open-loop arrival that fell due during the previous inline flush.
  const bool early = entry - last_submit_return < task->submitted - entry;
  const bool burst =
      !TakeWaitedSinceLastCall() && early && last_submit_early;
  last_submit_early = early;
  if (options_.start_workers && !burst && TryFlushInline(&shard, task.get())) {
    in_flight_submits_.fetch_sub(1, std::memory_order_release);
    last_submit_return = std::chrono::steady_clock::now();
    return ShardTicket(std::move(task));
  }
  // Count the task before pushing it, so `occupancy` never under-counts
  // what is pending and no inline flush can overtake it.
  const bool was_empty =
      shard.occupancy.fetch_add(1, std::memory_order_acq_rel) == 0;
  if (!shard.ring.Push(task.get())) {
    shard.occupancy.fetch_sub(1, std::memory_order_release);
    task->self.reset();
    in_flight_submits_.fetch_sub(1, std::memory_order_release);
    shard.metrics.AddErrors(1);
    return Status::Unavailable("ShardedEngine: shard " +
                               std::to_string(shard_index) +
                               " submit ring is full");
  }
  // Wake the worker only on the empty→non-empty edge. The empty critical
  // section orders this notify after the worker's predicate check, so
  // the wakeup cannot be lost.
  if (was_empty) {
    { std::lock_guard<std::mutex> lock(shard.wake_mu); }
    shard.wake_cv.notify_one();
  }
  in_flight_submits_.fetch_sub(1, std::memory_order_release);
  last_submit_return = std::chrono::steady_clock::now();
  return ShardTicket(std::move(task));
}

bool ShardedEngine::TryFlushInline(Shard* shard, ShardTask* task) {
  // A shard whose last flush batched several rows is under load: samples
  // arrive faster than one per flush, so this one joins the next batch.
  if (shard->occupancy.load(std::memory_order_acquire) != 0 ||
      shard->last_flush_batched.load(std::memory_order_relaxed) ||
      !shard->flush_mu.try_lock()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(shard->flush_mu, std::adopt_lock);
  // Re-check under the lock: a task counted since the first load was
  // submitted earlier and must be classified first. The worker takes a
  // task off `occupancy` only while holding flush_mu (release), so zero
  // here also means every earlier task's flush has finished.
  if (shard->occupancy.load(std::memory_order_acquire) != 0) return false;
  ScopedParallelismCap cap(1);
  shard->batch.assign(1, task);
  FlushBatch(shard);
  shard->metrics.AddInlineFlushes(1);
  return true;
}

void ShardedEngine::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Oversubscription guard: this worker is one lane of an N-shard fleet;
  // the batch kernel must not fan out over the global pool on top of it.
  ScopedParallelismCap cap(1);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(shard.wake_mu);
      shard.wake_cv.wait(lock, [&] {
        return shard.occupancy.load(std::memory_order_acquire) > 0 ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    std::lock_guard<std::mutex> flush_lock(shard.flush_mu);
    Gather(&shard);
    if (shard.batch.empty()) {
      if (!stopping_.load(std::memory_order_acquire) ||
          in_flight_submits_.load(std::memory_order_acquire) != 0) {
        continue;
      }
      // Stop is visible and no submission is mid-push; one more pop
      // after those loads is authoritative — every pre-stop push
      // happened-before the in-flight counter reached zero.
      ShardTask* last = shard.ring.Pop();
      if (last == nullptr) return;  // fully drained
      shard.occupancy.fetch_sub(1, std::memory_order_release);
      shard.batch.push_back(last);
    }
    FlushBatch(&shard);
  }
}

void ShardedEngine::Gather(Shard* shard) {
  std::vector<ShardTask*>& batch = shard->batch;
  batch.clear();
  if (shard->carry != nullptr) {
    batch.push_back(shard->carry);
    shard->carry = nullptr;
    shard->occupancy.fetch_sub(1, std::memory_order_release);
  }
  // Drain the whole backlog: batch size tracks it (see the header).
  while (batch.size() < kMaxBatch) {
    ShardTask* task = shard->ring.Pop();
    if (task == nullptr) break;
    if (!batch.empty() &&
        task->features.size() != batch.front()->features.size()) {
      // A hot-swap changed the schema mid-stream: keep batches
      // width-uniform so each fails or succeeds as a unit. The carry
      // stays counted in `occupancy` until it joins a batch.
      shard->carry = task;
      break;
    }
    shard->occupancy.fetch_sub(1, std::memory_order_release);
    batch.push_back(task);
  }
}

void ShardedEngine::FlushBatch(Shard* shard) {
  std::vector<ShardTask*>& batch = shard->batch;
  std::vector<std::shared_ptr<ShardTask>>& owned = shard->owned;
  std::vector<double>& features = shard->features;
  const auto flush_start = std::chrono::steady_clock::now();
  const size_t n = batch.size();
  for (ShardTask* task : batch) {
    shard->metrics.queue_wait().Record(Seconds(task->submitted, flush_start));
  }
  // Adopt the tasks' own references before completion: a submitter that
  // dropped its ticket must not free the task under us, and completed
  // tasks must not leak that count.
  owned.clear();
  for (ShardTask* task : batch) owned.push_back(std::move(task->self));

  // The version travels with the snapshot it names: a hot-swap between
  // this load and the observer fan-in below cannot re-tag the batch.
  const VersionedSnapshot snapshot = versioned_snapshot();
  if (snapshot.model == nullptr) {
    shard->metrics.AddErrors(1);
    const Status unavailable =
        Status::Unavailable("ShardedEngine: no model snapshot installed");
    for (ShardTask* task : batch) task->Complete(unavailable, {});
    owned.clear();
    return;
  }

  const size_t width = batch.front()->features.size();
  features.clear();
  for (ShardTask* task : batch) {
    features.insert(features.end(), task->features.begin(),
                    task->features.end());
  }
  ClassifyRequest request;
  request.features = features;
  request.num_features = width;

  Result<ClassifyResponse> response =
      snapshot.model->ClassifyBatch(request, &shard->scratch);

  if (!response.ok()) {
    // E.g. a hot-swap changed the schema between validation and flush:
    // the whole width-uniform batch fails gracefully.
    shard->metrics.AddErrors(1);
    for (ShardTask* task : batch) task->Complete(response.status(), {});
    owned.clear();
    return;
  }

  // Fleet-wide observer fan-in: every shard notifies the store's one
  // observer (multi-writer safe by contract) before completing tickets,
  // so a waiter never sees a decision the observer has not.
  RecordBatch(response.value(), request.features, snapshot.version,
              &shard->metrics);
  const std::vector<SampleDecision>& decisions = response.value().decisions;
  for (size_t i = 0; i < n; ++i) {
    batch[i]->Complete(Status::OK(), decisions[i]);
  }
  // True per-ticket submit-to-completion latency, stamped after the
  // decision became observable to its waiter.
  const auto completed = std::chrono::steady_clock::now();
  for (ShardTask* task : batch) {
    shard->metrics.total().Record(Seconds(task->submitted, completed));
  }
  shard->last_flush_batched.store(n > 1, std::memory_order_relaxed);
  owned.clear();
}

void ShardedEngine::Shutdown() {
  if (shutdown_done_.exchange(true)) return;  // idempotent
  stopping_.store(true, std::memory_order_release);
  // Wait out submissions caught between their stop check and ring push
  // (or inside an inline flush), so the workers' final drain provably
  // sees everything.
  while (in_flight_submits_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  for (auto& shard : shards_) {
    { std::lock_guard<std::mutex> lock(shard->wake_mu); }
    shard->wake_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // With workers disabled (tests) or never started, complete whatever is
  // still queued so no ticket waits forever.
  for (auto& shard : shards_) {
    while (ShardTask* task = shard->ring.Pop()) {
      shard->occupancy.fetch_sub(1, std::memory_order_relaxed);
      std::shared_ptr<ShardTask> owned = std::move(task->self);
      task->Complete(
          Status::Unavailable("ShardedEngine: shut down before flush"), {});
    }
  }
}

MetricsSnapshot ShardedEngine::GetMetrics() const {
  Metrics aggregate;
  for (const auto& shard : shards_) aggregate.MergeFrom(shard->metrics);
  // Install accounting (and any direct ClassifyBatch) lives in
  // the snapshot store's metrics.
  aggregate.MergeFrom(metrics());
  return aggregate.Snapshot();
}

MetricsSnapshot ShardedEngine::GetShardMetrics(size_t shard) const {
  FALCC_CHECK(shard < shards_.size(), "GetShardMetrics: shard out of range");
  return shards_[shard]->metrics.Snapshot();
}

}  // namespace falcc::serve
