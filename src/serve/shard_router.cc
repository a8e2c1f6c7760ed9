#include "serve/shard_router.h"

#include <algorithm>
#include <utility>

#include "util/math.h"

namespace falcc::serve {

void ShardTask::Complete(Status task_status, const SampleDecision& result) {
  {
    std::lock_guard<std::mutex> lock(mu);
    FALCC_CHECK(!done, "ShardTask completed twice");
    status = std::move(task_status);
    decision = result;
    done = true;
  }
  done_cv.notify_all();
}

namespace {

thread_local bool waited = false;

}  // namespace

Result<SampleDecision> ShardTicket::Wait() const {
  FALCC_CHECK(task_ != nullptr, "ShardTicket::Wait on an empty ticket");
  std::unique_lock<std::mutex> lock(task_->mu);
  task_->done_cv.wait(lock, [&] { return task_->done; });
  waited = true;
  if (!task_->status.ok()) return task_->status;
  return task_->decision;
}

bool TakeWaitedSinceLastCall() { return std::exchange(waited, false); }

SubmitRing::SubmitRing(size_t min_capacity) {
  const size_t capacity = RoundUpPow2(std::max<size_t>(min_capacity, 2));
  cells_ = std::vector<Cell>(capacity);
  mask_ = capacity - 1;
  for (size_t i = 0; i < capacity; ++i) {
    cells_[i].sequence.store(i, std::memory_order_relaxed);
  }
}

bool SubmitRing::Push(ShardTask* task) {
  size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.sequence.load(std::memory_order_acquire);
    const intptr_t dif =
        static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.task = task;
        cell.sequence.store(pos + 1, std::memory_order_release);
        return true;
      }
      // CAS refreshed `pos`; retry with the new claim point.
    } else if (dif < 0) {
      // The slot still holds an element from one lap ago: ring is full.
      return false;
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

ShardTask* SubmitRing::Pop() {
  const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & mask_];
  const size_t seq = cell.sequence.load(std::memory_order_acquire);
  const intptr_t dif =
      static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
  if (dif < 0) return nullptr;  // producer has not published this slot yet
  ShardTask* task = cell.task;
  cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
  dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
  return task;
}

ShardRouter::ShardRouter(size_t num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards) {}

size_t ShardRouter::RouteKey(uint64_t key) const {
  // splitmix64 finalizer: full-avalanche mix so adjacent keys spread
  // uniformly over the shards regardless of the shard count.
  uint64_t h = key + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<size_t>(h % num_shards_);
}

size_t ShardRouter::RouteNext() {
  return static_cast<size_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed) % num_shards_);
}

}  // namespace falcc::serve
