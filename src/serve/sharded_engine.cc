#include "serve/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/parallel.h"
#include "util/timer.h"

namespace falcc::serve {

namespace {

double Seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Hard upper bound on one flush, whatever the SLO math allows.
constexpr size_t kMaxBatch = 8192;
/// Service-model seeds — per-row cost and fixed per-flush overhead,
/// from BENCH_infer's compiled-kernel end-to-end numbers, so the first
/// flushes are sized sanely before feedback kicks in — and its EWMA
/// blend factor.
constexpr double kSeedRowSeconds = 2e-6;
constexpr double kSeedOverheadSeconds = 20e-6;
constexpr double kEwmaAlpha = 0.125;

size_t DefaultNumShards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

}  // namespace

void ServiceTimeModel::Update(size_t rows, double seconds) {
  if (rows == 0 || !(seconds > 0.0)) return;
  // Attribute the observation with the other term held at its current
  // estimate; alternating the two EWMAs keeps both identifiable without
  // a regression solve on the hot path.
  const double row_obs =
      std::max(0.0, seconds - overhead_) / static_cast<double>(rows);
  per_row_ += alpha_ * (row_obs - per_row_);
  if (per_row_ < 1e-9) per_row_ = 1e-9;
  const double overhead_obs =
      std::max(0.0, seconds - per_row_ * static_cast<double>(rows));
  overhead_ += alpha_ * (overhead_obs - overhead_);
}

ShardedEngine::Shard::Shard(size_t ring_capacity)
    : ring(ring_capacity),
      service_model(kSeedRowSeconds, kSeedOverheadSeconds, kEwmaAlpha) {}

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options),
      router_(options.num_shards == 0 ? DefaultNumShards()
                                      : options.num_shards) {
  FALCC_CHECK(options_.slo_seconds > 0.0,
              "ShardedEngine: slo_seconds must be > 0");
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
  Shard& shard = *shards_[shard_index];
  shard.metrics.AddRequests(1);
  // Announce the in-flight submission *before* the stop check: Shutdown
  // stores `stopping_` and then waits for this counter to hit zero, so
  // every submission that passed the check below has pushed (and is
  // visible to the workers' final drain) by the time the drain starts.
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
  task->self = task;  // the ring's reference, dropped by the worker
  if (!shard.ring.Push(task.get())) {
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
  if (shard.occupancy.fetch_add(1, std::memory_order_acq_rel) == 0) {
    { std::lock_guard<std::mutex> lock(shard.wake_mu); }
    shard.wake_cv.notify_one();
  }
  in_flight_submits_.fetch_sub(1, std::memory_order_release);
  return ShardTicket(std::move(task));
}

void ShardedEngine::WorkerLoop(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // Oversubscription guard: this worker is one lane of an N-shard fleet;
  // the batch kernel must not fan out over the global pool on top of it.
  ScopedParallelismCap cap(1);
  // Worker-owned scratch: steady-state flushes reuse the transform
  // matrix, sort arrays, and wrapper Dataset with zero allocation.
  ClassifyScratch scratch;
  std::vector<ShardTask*> batch;
  std::vector<std::shared_ptr<ShardTask>> owned;
  std::vector<double> features;
  batch.reserve(kMaxBatch);
  owned.reserve(kMaxBatch);
  ShardTask* carry = nullptr;  // width-mismatched task, next flush's seed

  for (;;) {
    batch.clear();
    if (carry != nullptr) {
      batch.push_back(carry);
      carry = nullptr;
    }
    // Gather: drain the ring greedily — batch size tracks the backlog —
    // but stop the moment classifying one more row is predicted to push
    // the *oldest* gathered ticket past its SLO deadline. Under overload
    // (deadline already unmeetable) degrade to one SLO's worth of
    // predicted service per flush: throughput-preserving, instead of
    // collapsing into tiny, already-late batches.
    while (batch.size() < kMaxBatch) {
      if (!batch.empty()) {
        const double age = Seconds(batch.front()->submitted,
                                   std::chrono::steady_clock::now());
        const double budget = std::max(options_.slo_seconds - age,
                                       0.5 * options_.slo_seconds);
        if (shard.service_model.Predict(batch.size() + 1) > budget) break;
      }
      ShardTask* task = shard.ring.Pop();
      if (task == nullptr) break;
      shard.occupancy.fetch_sub(1, std::memory_order_relaxed);
      if (!batch.empty() &&
          task->features.size() != batch.front()->features.size()) {
        // A hot-swap changed the schema mid-stream: keep batches
        // width-uniform so each fails or succeeds as a unit.
        carry = task;
        break;
      }
      batch.push_back(task);
    }

    if (batch.empty()) {
      if (stopping_.load(std::memory_order_acquire) &&
          in_flight_submits_.load(std::memory_order_acquire) == 0) {
        // Stop is visible and no submission is mid-push; one more pop
        // after those loads is authoritative — every pre-stop push
        // happened-before the in-flight counter reached zero.
        ShardTask* last = shard.ring.Pop();
        if (last == nullptr) return;  // fully drained
        shard.occupancy.fetch_sub(1, std::memory_order_relaxed);
        batch.push_back(last);
      } else {
        std::unique_lock<std::mutex> lock(shard.wake_mu);
        shard.wake_cv.wait(lock, [&] {
          return shard.occupancy.load(std::memory_order_acquire) > 0 ||
                 stopping_.load(std::memory_order_acquire);
        });
        continue;
      }
    }
    FlushBatch(&shard, &batch, &features, &scratch, &owned);
  }
}

void ShardedEngine::FlushBatch(Shard* shard, std::vector<ShardTask*>* batch,
                               std::vector<double>* features,
                               ClassifyScratch* scratch,
                               std::vector<std::shared_ptr<ShardTask>>* owned) {
  const auto flush_start = std::chrono::steady_clock::now();
  const size_t n = batch->size();
  for (ShardTask* task : *batch) {
    shard->metrics.queue_wait().Record(Seconds(task->submitted, flush_start));
  }
  // Adopt the ring's references before completion: a submitter that
  // dropped its ticket must not free the task under us, and completed
  // tasks must not leak the ring's count.
  owned->clear();
  for (ShardTask* task : *batch) owned->push_back(std::move(task->self));

  // The version travels with the snapshot it names: a hot-swap between
  // this load and the observer fan-in below cannot re-tag the batch.
  const VersionedSnapshot snapshot = versioned_snapshot();
  if (snapshot.model == nullptr) {
    shard->metrics.AddErrors(1);
    const Status unavailable =
        Status::Unavailable("ShardedEngine: no model snapshot installed");
    for (ShardTask* task : *batch) task->Complete(unavailable, {});
    owned->clear();
    return;
  }

  const size_t width = batch->front()->features.size();
  features->clear();
  for (ShardTask* task : *batch) {
    features->insert(features->end(), task->features.begin(),
                     task->features.end());
  }
  ClassifyRequest request;
  request.features = *features;
  request.num_features = width;

  Timer service;
  Result<ClassifyResponse> response =
      snapshot.model->ClassifyBatch(request, scratch);
  const double service_seconds = service.ElapsedSeconds();

  if (!response.ok()) {
    // E.g. a hot-swap changed the schema between validation and flush:
    // the whole width-uniform batch fails gracefully.
    shard->metrics.AddErrors(1);
    for (ShardTask* task : *batch) task->Complete(response.status(), {});
    owned->clear();
    return;
  }

  shard->metrics.AddFlushes(1);
  shard->metrics.AddSamples(n);
  const ClassifyStageSeconds& stages = response.value().stages;
  shard->metrics.validate().Record(stages.validate);
  shard->metrics.transform().Record(stages.transform);
  shard->metrics.match().Record(stages.match);
  shard->metrics.predict().Record(stages.predict);

  const std::vector<SampleDecision>& decisions = response.value().decisions;
  // Fleet-wide observer fan-in: every shard notifies the store's one
  // observer (multi-writer safe by contract) before completing tickets,
  // so a waiter never sees a decision the observer has not.
  NotifyObserver(response.value(), request.features, snapshot.version,
                 &shard->metrics);
  for (size_t i = 0; i < n; ++i) {
    (*batch)[i]->Complete(Status::OK(), decisions[i]);
  }
  // True per-ticket submit-to-completion latency, stamped after the
  // decision became observable to its waiter.
  const auto completed = std::chrono::steady_clock::now();
  for (ShardTask* task : *batch) {
    shard->metrics.total().Record(Seconds(task->submitted, completed));
  }
  {
    std::lock_guard<std::mutex> lock(shard->status_mu);
    shard->service_model.Update(n, service_seconds);
  }
  owned->clear();
}

void ShardedEngine::Shutdown() {
  if (shutdown_done_.exchange(true)) return;  // idempotent
  stopping_.store(true, std::memory_order_release);
  // Wait out submissions caught between their stop check and ring push,
  // so the workers' final drain provably sees everything.
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
  // Install/compile accounting (and any direct ClassifyBatch) lives in
  // the snapshot store's metrics.
  aggregate.MergeFrom(metrics());
  return aggregate.Snapshot();
}

MetricsSnapshot ShardedEngine::GetShardMetrics(size_t shard) const {
  FALCC_CHECK(shard < shards_.size(), "GetShardMetrics: shard out of range");
  return shards_[shard]->metrics.Snapshot();
}

ShardStatus ShardedEngine::GetShardStatus(size_t shard) const {
  FALCC_CHECK(shard < shards_.size(), "GetShardStatus: shard out of range");
  const Shard& s = *shards_[shard];
  ShardStatus status;
  status.shard = shard;
  {
    std::lock_guard<std::mutex> lock(s.status_mu);
    status.ewma_row_seconds = s.service_model.per_row_seconds();
    status.ewma_overhead_seconds = s.service_model.overhead_seconds();
  }
  const MetricsSnapshot snapshot = s.metrics.Snapshot();
  status.flushes = snapshot.flushes;
  status.samples = snapshot.samples;
  return status;
}

}  // namespace falcc::serve
