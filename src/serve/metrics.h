// Serving-layer observability: request/error counters and fixed-bucket
// latency histograms, written lock-free from the hot path and read as a
// consistent-enough snapshot by benchmarks, tests, and the CLI.
//
// Histograms use log-linear microsecond buckets: each power-of-two
// decade [2^e, 2^(e+1)) µs is split into kSubBuckets equal-width linear
// sub-buckets (bucket 0 collects < 1 µs). A reported quantile is the
// upper bound of the sub-bucket containing it, so the relative error is
// at most 1/kSubBuckets ≈ 1.6% — tight enough that an SLO check against
// the histogram means what it says, unlike the previous pure
// power-of-two buckets whose quantiles were only exact to 2×.
// Recording stays a single relaxed atomic increment (exponent via
// ilogb, sub-bucket via one multiply), cheap enough for per-ticket
// accounting in the flush path.

#ifndef FALCC_SERVE_METRICS_H_
#define FALCC_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace falcc::serve {

/// Point-in-time view of one histogram.
struct LatencySummary {
  uint64_t count = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Fixed-bucket log-linear latency histogram; thread-safe, no locks.
class LatencyHistogram {
 public:
  /// Linear sub-buckets per power-of-two decade; bounds the relative
  /// error of a reported quantile to 1/kSubBuckets.
  static constexpr size_t kSubBuckets = 64;
  /// Decades cover 1 µs up to 2^kNumExponents µs (~67 s); the last
  /// sub-bucket absorbs everything beyond.
  static constexpr size_t kNumExponents = 26;
  /// Bucket 0 is < 1 µs; then kNumExponents × kSubBuckets log-linear
  /// buckets.
  static constexpr size_t kNumBuckets = 1 + kNumExponents * kSubBuckets;

  void Record(double seconds);

  /// Approximate quantiles over everything recorded so far. Concurrent
  /// Record calls may or may not be included (relaxed reads).
  LatencySummary Summarize() const;

  /// Adds every count recorded in `other` into this histogram — the
  /// aggregation primitive behind fleet-level (per-shard) summaries.
  /// Relaxed reads of `other`: counts recorded concurrently with the
  /// merge may or may not be included.
  void MergeFrom(const LatencyHistogram& other);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Counters + per-stage histograms of one FalccEngine.
struct MetricsSnapshot {
  uint64_t requests = 0;  ///< submissions + direct batch calls
  uint64_t samples = 0;   ///< samples successfully classified
  uint64_t errors = 0;    ///< rejected or failed requests
  uint64_t flushes = 0;   ///< batches classified: shard flushes plus
                          ///< successful direct ClassifyBatch calls
  uint64_t inline_flushes = 0;  ///< shard flushes a submitting thread ran
                                ///< itself on an idle shard
  uint64_t reloads = 0;   ///< snapshot installs/hot-swaps
  uint64_t observed = 0;  ///< decisions fanned out to the observer
  LatencySummary total;       ///< per sample, submit → decision available
  LatencySummary queue_wait;  ///< per sample, submit → flush start
  LatencySummary validate;    ///< per batch-classify call, by stage
  LatencySummary transform;
  LatencySummary match;
  LatencySummary predict;

  /// Multi-line human-readable rendering (CLI diagnostics).
  std::string ToString() const;

  /// Single JSON object: counters plus {count, p50_us, p95_us, p99_us}
  /// per stage — what `falcc_cli classify --metrics-out=FILE` dumps so
  /// serving histograms survive the process.
  std::string ToJson() const;
};

/// Lock-free metrics sink shared by the engine's hot paths.
class Metrics {
 public:
  void AddRequests(uint64_t n) { Add(&requests_, n); }
  void AddSamples(uint64_t n) { Add(&samples_, n); }
  void AddErrors(uint64_t n) { Add(&errors_, n); }
  void AddFlushes(uint64_t n) { Add(&flushes_, n); }
  void AddInlineFlushes(uint64_t n) { Add(&inline_flushes_, n); }
  void AddReloads(uint64_t n) { Add(&reloads_, n); }
  void AddObserved(uint64_t n) { Add(&observed_, n); }

  LatencyHistogram& total() { return total_; }
  LatencyHistogram& queue_wait() { return queue_wait_; }
  LatencyHistogram& validate() { return validate_; }
  LatencyHistogram& transform() { return transform_; }
  LatencyHistogram& match() { return match_; }
  LatencyHistogram& predict() { return predict_; }

  MetricsSnapshot Snapshot() const;
  /// Convenience: Snapshot().ToJson().
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Adds `other`'s counters and histogram counts into this sink —
  /// how a sharded engine folds its per-shard metrics into one
  /// fleet-level view. Relaxed reads; see LatencyHistogram::MergeFrom.
  void MergeFrom(const Metrics& other);

 private:
  static void Add(std::atomic<uint64_t>* counter, uint64_t n) {
    counter->fetch_add(n, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> inline_flushes_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> observed_{0};
  LatencyHistogram total_;
  LatencyHistogram queue_wait_;
  LatencyHistogram validate_;
  LatencyHistogram transform_;
  LatencyHistogram match_;
  LatencyHistogram predict_;
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_METRICS_H_
