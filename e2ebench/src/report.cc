#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2e {

const std::vector<MetricSpec>& AllMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // End to end, every workload.
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"score_rows_per_s", "rows/s", false},
      {"cpu_us_per_row", "us", false},
      // Latencies. Per layer only: on a shared host they move with the
      // neighbours' load beyond any bound.
      {"decide_p50_us", "us", true},
      {"decide_p99_us", "us", true},
      {"refresh_p50_ms", "ms", true},
      // Online phase, per row.
      {"core.validate_ns_per_row", "ns", true},
      {"data.transform_ns_per_row", "ns", true},
      {"cluster.match_ns_per_row", "ns", true},
      {"ml.predict_ns_per_row", "ns", true},
      {"core.unattributed_share", "ratio", true},
      // Offline phase and snapshot I/O, from the median set-up.
      {"core.train_pool_s", "s", true},
      {"core.cluster_s", "s", true},
      {"core.assess_s", "s", true},
      {"io.save_ms", "ms", true},
      {"io.load_ms", "ms", true},
      {"io.snapshot_bytes", "bytes", true},
      {"setup.start_s", "s", true},
      // Serving front end.
      {"serve.submit_ns_p50", "ns", true},
      {"serve.queue_wait_us_p50", "us", true},
      {"serve.queue_wait_us_p99", "us", true},
      {"serve.batch_rows_mean", "rows", true},
      {"serve.rejected", "count", true},
      // Monitor.
      {"monitor.feedback_ns_p50", "ns", true},
      {"monitor.poll_ms_p50", "ms", true},
      {"monitor.drained", "count", true},
      {"monitor.log_overwritten", "count", true},
      {"monitor.feedback_missed", "count", true},
      {"monitor.feedback_withheld_share", "ratio", true},
      {"monitor.reassess_ms_p50", "ms", true},
      {"monitor.refresh_installed", "count", true},
      {"monitor.refresh_attempts", "count", true},
      {"monitor.detect_samples_p50", "count", true},
      // Replication.
      {"replicate.lag_ms_p50", "ms", true},
      {"io.delta_bytes", "bytes", true},
      {"replicate.deltas_applied", "count", true},
      {"replicate.full_reloads", "count", true},
      {"replicate.recoveries", "count", true},
      {"replicate.quarantined", "count", true},
      {"replicate.reconnects", "count", true},
      // Generator and tracing sanity; span self-time shares of one
      // request's end-to-end time.
      {"gen.late_p99_us", "us", true},
      {"trace.overhead_share", "ratio", true},
      {"trace.unattributed_us", "us", true},
      {"trace.unattributed_share", "ratio", true},
      {"trace.self_share.core.validate", "ratio", true},
      {"trace.self_share.data.transform", "ratio", true},
      {"trace.self_share.cluster.match", "ratio", true},
      {"trace.self_share.ml.predict", "ratio", true},
      {"trace.self_share.gen.late", "ratio", true},
      {"trace.self_share.serve.submit", "ratio", true},
      {"trace.self_share.serve.wait", "ratio", true},
  };
  return kMetrics;
}

namespace {

/// JSON string literal for `s`.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

bool IsNumber(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && std::isfinite(v);
}

}  // namespace

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       bool per_layer,
                       const std::map<std::string, double>& values,
                       std::vector<std::string>* missing) {
  std::string metrics;
  for (const MetricSpec& spec : AllMetrics()) {
    if (spec.per_layer != per_layer) continue;
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      missing->push_back(spec.name);
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(spec.name) + ": {\"value\": " + Number(it->second) +
               ", \"unit\": " + Quote(spec.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

std::string HeaderLine(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string body;
  for (const auto& [key, value] : fields) {
    if (!body.empty()) body += ", ";
    body += Quote(key) + ": " + (IsNumber(value) ? value : Quote(value));
  }
  return "{\"header\": {" + body + "}}";
}

}  // namespace e2e
