#include "serve/metrics.h"

#include <cmath>
#include <sstream>

namespace falcc::serve {

namespace {

/// Upper bound of bucket b in seconds. Bucket 0 is < 1 µs; bucket
/// 1 + e*kSubBuckets + s covers
/// [2^e * (1 + s/kSubBuckets), 2^e * (1 + (s+1)/kSubBuckets)) µs.
double BucketUpperSeconds(size_t bucket) {
  if (bucket == 0) return 1e-6;
  const size_t e = (bucket - 1) / LatencyHistogram::kSubBuckets;
  const size_t sub = (bucket - 1) % LatencyHistogram::kSubBuckets;
  const double decade = std::ldexp(1e-6, static_cast<int>(e));
  return decade * (1.0 + static_cast<double>(sub + 1) /
                             LatencyHistogram::kSubBuckets);
}

double Quantile(const std::array<uint64_t, LatencyHistogram::kNumBuckets>&
                    counts,
                uint64_t total, double q) {
  if (total == 0) return 0.0;
  const uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  uint64_t seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) return BucketUpperSeconds(b);
  }
  return BucketUpperSeconds(counts.size() - 1);
}

void AppendSummary(std::ostringstream* out, const char* name,
                   const LatencySummary& s) {
  *out << "  " << name << ": count=" << s.count
       << " p50=" << s.p50_seconds * 1e6 << "us"
       << " p95=" << s.p95_seconds * 1e6 << "us"
       << " p99=" << s.p99_seconds * 1e6 << "us\n";
}

void AppendJsonSummary(std::ostringstream* out, const char* name,
                       const LatencySummary& s) {
  *out << "\"" << name << "\": {\"count\": " << s.count
       << ", \"p50_us\": " << s.p50_seconds * 1e6
       << ", \"p95_us\": " << s.p95_seconds * 1e6
       << ", \"p99_us\": " << s.p99_seconds * 1e6 << "}";
}

}  // namespace

void LatencyHistogram::Record(double seconds) {
  const double micros = seconds * 1e6;
  size_t bucket = 0;
  if (micros >= 1.0) {
    size_t exp = static_cast<size_t>(std::ilogb(micros));
    if (exp >= kNumExponents) {
      bucket = kNumBuckets - 1;
    } else {
      // micros / 2^exp is in [1, 2): the fractional part picks the
      // linear sub-bucket inside the decade.
      const double frac = std::ldexp(micros, -static_cast<int>(exp)) - 1.0;
      size_t sub = static_cast<size_t>(frac * kSubBuckets);
      if (sub >= kSubBuckets) sub = kSubBuckets - 1;
      bucket = 1 + exp * kSubBuckets + sub;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n > 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
}

LatencySummary LatencyHistogram::Summarize() const {
  std::array<uint64_t, kNumBuckets> counts{};
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  LatencySummary summary;
  summary.count = total;
  summary.p50_seconds = Quantile(counts, total, 0.50);
  summary.p95_seconds = Quantile(counts, total, 0.95);
  summary.p99_seconds = Quantile(counts, total, 0.99);
  return summary;
}

void Metrics::MergeFrom(const Metrics& other) {
  AddRequests(other.requests_.load(std::memory_order_relaxed));
  AddSamples(other.samples_.load(std::memory_order_relaxed));
  AddErrors(other.errors_.load(std::memory_order_relaxed));
  AddFlushes(other.flushes_.load(std::memory_order_relaxed));
  AddInlineFlushes(other.inline_flushes_.load(std::memory_order_relaxed));
  AddReloads(other.reloads_.load(std::memory_order_relaxed));
  AddObserved(other.observed_.load(std::memory_order_relaxed));
  total_.MergeFrom(other.total_);
  queue_wait_.MergeFrom(other.queue_wait_);
  validate_.MergeFrom(other.validate_);
  transform_.MergeFrom(other.transform_);
  match_.MergeFrom(other.match_);
  predict_.MergeFrom(other.predict_);
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.requests = requests_.load(std::memory_order_relaxed);
  snapshot.samples = samples_.load(std::memory_order_relaxed);
  snapshot.errors = errors_.load(std::memory_order_relaxed);
  snapshot.flushes = flushes_.load(std::memory_order_relaxed);
  snapshot.inline_flushes = inline_flushes_.load(std::memory_order_relaxed);
  snapshot.reloads = reloads_.load(std::memory_order_relaxed);
  snapshot.observed = observed_.load(std::memory_order_relaxed);
  snapshot.total = total_.Summarize();
  snapshot.queue_wait = queue_wait_.Summarize();
  snapshot.validate = validate_.Summarize();
  snapshot.transform = transform_.Summarize();
  snapshot.match = match_.Summarize();
  snapshot.predict = predict_.Summarize();
  return snapshot;
}

std::string MetricsSnapshot::ToString() const {
  std::ostringstream out;
  out << "serve metrics:\n"
      << "  requests=" << requests << " samples=" << samples
      << " errors=" << errors << " flushes=" << flushes
      << " inline_flushes=" << inline_flushes << " reloads=" << reloads
      << " observed=" << observed << "\n";
  AppendSummary(&out, "total", total);
  AppendSummary(&out, "queue_wait", queue_wait);
  AppendSummary(&out, "validate", validate);
  AppendSummary(&out, "transform", transform);
  AppendSummary(&out, "match", match);
  AppendSummary(&out, "predict", predict);
  return out.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"requests\": " << requests << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"errors\": " << errors << ",\n"
      << "  \"flushes\": " << flushes << ",\n"
      << "  \"inline_flushes\": " << inline_flushes << ",\n"
      << "  \"reloads\": " << reloads << ",\n"
      << "  \"observed\": " << observed << ",\n  ";
  AppendJsonSummary(&out, "total", total);
  out << ",\n  ";
  AppendJsonSummary(&out, "queue_wait", queue_wait);
  out << ",\n  ";
  AppendJsonSummary(&out, "validate", validate);
  out << ",\n  ";
  AppendJsonSummary(&out, "transform", transform);
  out << ",\n  ";
  AppendJsonSummary(&out, "match", match);
  out << ",\n  ";
  AppendJsonSummary(&out, "predict", predict);
  out << "\n}\n";
  return out.str();
}

}  // namespace falcc::serve
