#include "util/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace falcc {

namespace {

// One parallel loop in flight: chunks are claimed via an atomic cursor by
// the pool workers and the calling thread alike, exceptions land in
// per-chunk slots (no lock needed — each slot has exactly one writer).
// Regions are shared-owned: a straggling worker may still hold a
// reference after the owning call returned, at which point every chunk is
// claimed and Drain() is a no-op.
struct Region {
  size_t begin = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  size_t range_end = 0;
  /// Pool workers beyond this many skip the region (ScopedParallelismCap);
  /// the calling thread always participates and is not counted here.
  size_t max_extra_workers = 0;
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  std::vector<std::exception_ptr> errors;

  std::atomic<size_t> worker_claims{0};
  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> chunks_done{0};
  std::mutex mu;
  std::condition_variable done_cv;

  void RunChunk(size_t chunk) {
    const size_t lo = begin + chunk * grain;
    const size_t hi = std::min(lo + grain, range_end);
    try {
      (*body)(chunk, lo, hi);
    } catch (...) {
      errors[chunk] = std::current_exception();
    }
    if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        num_chunks) {
      // Last chunk: wake the owner (which may be parked in Wait()).
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
  }

  // Claims and runs chunks until none are left.
  void Drain() {
    while (true) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      RunChunk(chunk);
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] {
      return chunks_done.load(std::memory_order_acquire) == num_chunks;
    });
  }
};

// Marks threads that belong to the pool so nested parallel calls run
// inline instead of deadlocking on the pool they occupy.
thread_local bool t_in_pool_worker = false;

// Per-thread parallelism ceiling (ScopedParallelismCap). SIZE_MAX means
// uncapped; 1 forces every loop issued from this thread inline.
thread_local size_t t_parallelism_cap = SIZE_MAX;

class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive statics
    return *pool;
  }

  size_t parallelism() {
    std::lock_guard<std::mutex> lock(mu_);
    return ConfiguredLocked();
  }

  void set_parallelism(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    configured_ = n < 1 ? 1 : n;
    StopLocked(&lock);
  }

  void Shutdown() {
    std::unique_lock<std::mutex> lock(mu_);
    StopLocked(&lock);
  }

  // Runs `region` with the calling thread participating. Workers are
  // started lazily here on first use.
  void Run(const std::shared_ptr<Region>& region) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      const size_t want = ConfiguredLocked();
      if (want > 1 && workers_.empty()) StartLocked(want - 1);
      if (!workers_.empty()) {
        active_region_ = region;
        work_cv_.notify_all();
      }
    }
    region->Drain();
    region->Wait();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_region_ == region) active_region_ = nullptr;
      // Unpark workers still waiting on this drained region.
      work_cv_.notify_all();
    }
  }

 private:
  Pool() = default;

  size_t ConfiguredLocked() {
    if (configured_ == 0) {
      const char* env = std::getenv("FALCC_THREADS");
      if (env != nullptr) {
        const long v = std::atol(env);
        configured_ = v > 0 ? static_cast<size_t>(v) : 1;
      } else {
        const unsigned hw = std::thread::hardware_concurrency();
        configured_ = hw > 0 ? hw : 1;
      }
    }
    return configured_;
  }

  void StartLocked(size_t num_workers) {
    stop_ = false;
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopLocked(std::unique_lock<std::mutex>* lock) {
    if (workers_.empty()) return;
    stop_ = true;
    work_cv_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock->unlock();
    for (std::thread& w : workers) w.join();
    lock->lock();
    stop_ = false;
  }

  void WorkerLoop() {
    t_in_pool_worker = true;
    while (true) {
      std::shared_ptr<Region> region;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return stop_ || active_region_ != nullptr;
        });
        if (stop_) return;
        region = active_region_;
      }
      // Respect the issuing thread's parallelism cap: workers past the
      // limit leave the region to the threads already in it.
      if (region->worker_claims.fetch_add(1, std::memory_order_relaxed) <
          region->max_extra_workers) {
        region->Drain();
      }
      // Park until the owner retires this region; prevents busy-spinning
      // on a region whose chunks are all claimed but not yet finished.
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || active_region_ != region; });
      if (stop_) return;
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Region> active_region_;
  bool stop_ = false;
  size_t configured_ = 0;  // 0 = not yet resolved from env/hardware
};

}  // namespace

size_t Parallelism() { return Pool::Instance().parallelism(); }

ScopedParallelismCap::ScopedParallelismCap(size_t cap)
    : previous_(t_parallelism_cap) {
  const size_t wanted = cap < 1 ? 1 : cap;
  t_parallelism_cap = wanted < previous_ ? wanted : previous_;
}

ScopedParallelismCap::~ScopedParallelismCap() {
  t_parallelism_cap = previous_;
}

size_t CurrentParallelismCap() { return t_parallelism_cap; }

void SetParallelism(size_t n) { Pool::Instance().set_parallelism(n); }

void ShutdownParallelPool() { Pool::Instance().Shutdown(); }

size_t NumChunks(size_t begin, size_t end, size_t grain) {
  if (end <= begin) return 0;
  const size_t g = grain < 1 ? 1 : grain;
  return (end - begin + g - 1) / g;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t num_chunks = NumChunks(begin, end, grain);
  if (num_chunks == 0) return;
  const size_t g = grain < 1 ? 1 : grain;

  // Serial fallback: single chunk, parallelism (or the issuing thread's
  // cap) 1, or nested inside a pool worker. Runs chunks inline in order —
  // identical chunking, identical combine order, no synchronization.
  const size_t effective =
      std::min(Parallelism(), t_parallelism_cap);
  if (num_chunks == 1 || t_in_pool_worker || effective == 1) {
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const size_t lo = begin + chunk * g;
      const size_t hi = std::min(lo + g, end);
      body(chunk, lo, hi);
    }
    return;
  }

  auto region = std::make_shared<Region>();
  region->begin = begin;
  region->grain = g;
  region->num_chunks = num_chunks;
  region->range_end = end;
  region->max_extra_workers = effective - 1;
  region->body = &body;
  region->errors.assign(num_chunks, nullptr);
  Pool::Instance().Run(region);

  // Take the lowest chunk's exception and drop every stored one here, on
  // the calling thread: a pool worker may still hold the Region and
  // release it last, and it must not be the one to destroy an exception
  // object the caller is reading.
  std::exception_ptr first;
  for (const std::exception_ptr& error : region->errors) {
    if (error) {
      first = error;
      break;
    }
  }
  region->errors.clear();
  if (first) std::rethrow_exception(first);
}

}  // namespace falcc
