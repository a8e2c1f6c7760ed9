// falcc_e2e: the seeded end-to-end benchmark of the FALCC stack.
//
//   falcc_e2e --workload score_batch|serve_open|drift_refresh --seed N
//             --seconds S --trace 0|1 [--run-dir DIR] [--out-dir DIR]
//             [--revision REV]
//
// Every workload sets up the same stack three times (train, save, load
// mapped, start engine, monitor and replicas) and keeps the last; setup_s
// is the median. It then computes reference decisions, runs the
// workload's timed pass, and checks decisions, refreshes and replicas.
// `--trace 0` prints the end-to-end metrics; `--trace 1` runs the timed
// pass twice — untraced, then traced — and prints the per-layer metrics,
// the span self-time breakdown and the tracing overhead. The last line of
// stdout is the JSON result; the exit code is non-zero on any failure.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "setup.h"
#include "stats.h"
#include "trace.h"
#include "util/parallel.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

constexpr size_t kSetups = 3;
constexpr size_t kProbeRefreshes = 15;

int Usage() {
  std::fprintf(stderr,
               "usage: falcc_e2e --workload score_batch|serve_open|"
               "drift_refresh --seed N --seconds S --trace 0|1 "
               "[--run-dir DIR] [--out-dir DIR] [--revision REV]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  config->run_dir = ".bench_run";
  config->out_dir = ".bench_out";
  config->revision = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config->seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (arg == "--run-dir") {
      config->run_dir = value;
    } else if (arg == "--out-dir") {
      config->out_dir = value;
    } else if (arg == "--revision") {
      config->revision = value;
    } else {
      return false;
    }
  }
  return have_workload &&
         (config->workload == "score_batch" ||
          config->workload == "serve_open" ||
          config->workload == "drift_refresh");
}

double Median(std::vector<double> values) { return QuantileOf(values, 0.5); }

/// Per-layer values every workload reports from the stack's own stats.
void StackLayers(Stack& stack, const std::vector<SetupTimes>& setups,
                 RefreshTracker& tracker, bool serving, Values* v) {
  const SetupTimes& t = setups.back();
  std::vector<double> pool, cluster, assess, save, load, start;
  for (const SetupTimes& s : setups) {
    pool.push_back(s.stages.train_seconds);
    cluster.push_back(s.stages.cluster_seconds);
    assess.push_back(s.stages.assess_seconds);
    save.push_back(s.save_s * 1e3);
    load.push_back(s.load_s * 1e3);
    start.push_back(s.start_s);
  }
  (*v)["core.train_pool_s"] = Median(pool);
  (*v)["core.cluster_s"] = Median(cluster);
  (*v)["core.assess_s"] = Median(assess);
  (*v)["io.save_ms"] = Median(save);
  (*v)["io.load_ms"] = Median(load);
  (*v)["io.snapshot_bytes"] = static_cast<double>(t.snapshot_bytes);
  (*v)["setup.start_s"] = Median(start);

  const falcc::serve::MetricsSnapshot m = stack.engine().GetMetrics();
  const double rows_per_batch =
      m.flushes > 0 ? static_cast<double>(m.samples) / m.flushes : 0.0;
  (*v)["serve.batch_rows_mean"] = serving ? rows_per_batch : 0.0;
  (*v)["serve.queue_wait_us_p50"] =
      serving ? m.queue_wait.p50_seconds * 1e6 : 0.0;
  (*v)["serve.queue_wait_us_p99"] =
      serving ? m.queue_wait.p99_seconds * 1e6 : 0.0;
  if (serving && rows_per_batch > 0.0) {
    // Shard flush stages: p50 per batch over the mean batch size.
    (*v)["core.validate_ns_per_row"] =
        m.validate.p50_seconds * 1e9 / rows_per_batch;
    (*v)["data.transform_ns_per_row"] =
        m.transform.p50_seconds * 1e9 / rows_per_batch;
    (*v)["cluster.match_ns_per_row"] =
        m.match.p50_seconds * 1e9 / rows_per_batch;
    (*v)["ml.predict_ns_per_row"] =
        m.predict.p50_seconds * 1e9 / rows_per_batch;
  }

  const falcc::monitor::MonitorSummary summary = stack.monitor().Summary();
  (*v)["monitor.drained"] = static_cast<double>(summary.log.consumed);
  (*v)["monitor.log_overwritten"] = static_cast<double>(summary.log.overwritten);
  (*v)["monitor.feedback_missed"] =
      static_cast<double>(summary.log.feedback_missed);
  (*v)["monitor.refresh_installed"] =
      static_cast<double>(summary.refresh.installed);
  (*v)["monitor.refresh_attempts"] =
      static_cast<double>(summary.refresh.attempts);
  (*v)["monitor.poll_ms_p50"] = QuantileOf(tracker.poll_ms(), 0.5);

  std::vector<double> reassess, detect, lag, delta;
  for (const RefreshEvent& e : tracker.events()) {
    reassess.push_back(e.reassess_s * 1e3);
    detect.push_back(static_cast<double>(e.detect_samples));
    if (e.installed) delta.push_back(static_cast<double>(e.delta_bytes));
    if (e.converged) {
      lag.push_back(static_cast<double>(e.converged_ns - e.installed_ns) *
                    1e-6);
    }
  }
  (*v)["monitor.reassess_ms_p50"] = QuantileOf(reassess, 0.5);
  (*v)["monitor.detect_samples_p50"] = QuantileOf(detect, 0.5);
  (*v)["replicate.lag_ms_p50"] = QuantileOf(lag, 0.5);
  (*v)["io.delta_bytes"] = Mean(delta);

  double deltas = 0, reloads = 0, recoveries = 0, quarantined = 0,
         reconnects = 0;
  for (Replica& replica : stack.replicas()) {
    const falcc::replicate::DeltaPullerStats s = replica.puller->Stats();
    deltas += static_cast<double>(s.deltas_applied);
    reloads += static_cast<double>(s.full_reloads);
    recoveries += static_cast<double>(s.recoveries);
    quarantined += static_cast<double>(s.quarantined);
    const uint64_t connects = replica.feed->Stats().connects;
    reconnects += connects > 1 ? static_cast<double>(connects - 1) : 0.0;
  }
  (*v)["replicate.deltas_applied"] = deltas;
  (*v)["replicate.full_reloads"] = reloads;
  (*v)["replicate.recoveries"] = recoveries;
  (*v)["replicate.quarantined"] = quarantined;
  (*v)["replicate.reconnects"] = reconnects;
}

int Run(const RunConfig& config) {
  falcc::SetParallelism(std::max(1u, std::thread::hardware_concurrency()));
  const Inputs inputs = MakeInputs(config.seed);
  const std::string run_dir =
      config.run_dir + "/" + std::to_string(static_cast<long>(getpid()));
  Outcome outcome;

  // --- set up kSetups times, keep the last ------------------------------
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<Stack> stack;
  for (size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    falcc::Result<std::unique_ptr<Stack>> started = Stack::Start(
        inputs, run_dir + "/setup" + std::to_string(i), &setups[i]);
    if (!started.ok()) {
      std::fprintf(stderr, "e2e: set-up failed: %s\n",
                   started.status().ToString().c_str());
      std::error_code ec;
      std::filesystem::remove_all(run_dir, ec);
      return 1;
    }
    stack = std::move(started).value();
    outcome.attempted += 1;
    if (setups[i].content_hash == 0 ||
        setups[i].content_hash != setups[0].content_hash) {
      outcome.Fail(1, "set-up " + std::to_string(i) +
                          " produced a different snapshot");
    }
  }
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);

  const std::vector<falcc::SampleDecision> reference =
      ComputeReference(*stack, inputs);
  RefreshTracker tracker(stack.get());
  std::set<size_t> refreshed;

  // --- timed pass(es) ----------------------------------------------------
  auto pass = [&](bool traced) {
    const uint64_t pass_seed = StreamSeed(config.seed, traced ? 101 : 100);
    if (config.workload == "score_batch") {
      return RunScoreBatch(*stack, inputs, reference, pass_seed,
                           config.seconds, traced, &outcome);
    }
    return RunServe(*stack, inputs, reference, pass_seed, config.seconds,
                    config.workload == "drift_refresh", traced, &tracker,
                    &refreshed, &outcome);
  };
  const PassResult untraced = pass(false);
  PassResult traced;
  if (config.trace) traced = pass(true);

  if (config.workload != "drift_refresh") {
    RunRefreshProbe(*stack, inputs, reference, StreamSeed(config.seed, 102),
                    kProbeRefreshes, &tracker, &refreshed, &outcome);
  }
  tracker.AwaitReplicas(10.0);
  CheckReplicasMatchPrimary(*stack, inputs, &outcome);

  std::vector<double> refresh_ms;
  for (const RefreshEvent& e : tracker.events()) {
    if (e.converged) {
      refresh_ms.push_back(static_cast<double>(e.converged_ns - e.alarm_ns) *
                           1e-6);
    }
  }

  Values values;
  if (!config.trace) {
    values["setup_s"] = Median(setup_s);
    values["peak_rss_mb"] = PeakRssMb();
    values["score_rows_per_s"] = untraced.rows_per_s;
    values["cpu_us_per_row"] = untraced.cpu_us_per_row;
  } else {
    values = traced.layers;
    values["decide_p50_us"] = untraced.decide_p50_us;
    values["decide_p99_us"] = untraced.decide_p99_us;
    values["refresh_p50_ms"] = QuantileOf(refresh_ms, 0.5);
    StackLayers(*stack, setups, tracker, config.workload != "score_batch",
                &values);
    SpanBuffer refresh_spans(true, tracker.events().size() * 3);
    tracker.RecordSpans(&refresh_spans);
    std::vector<Span> spans = traced.spans;
    spans.insert(spans.end(), refresh_spans.spans().begin(),
                 refresh_spans.spans().end());
    const Breakdown breakdown = SelfTimes(spans, traced.root);
    for (const char* layer :
         {"core.validate", "data.transform", "cluster.match", "ml.predict",
          "gen.late", "serve.submit", "serve.wait"}) {
      values[std::string("trace.self_share.") + layer] =
          breakdown.Share(layer);
    }
    values["trace.unattributed_share"] = breakdown.UnattributedShare();
    values["trace.unattributed_us"] =
        breakdown.requests > 0
            ? breakdown.unattributed_ns / breakdown.requests * 1e-3
            : 0.0;
    values["trace.overhead_share"] =
        untraced.decide_p50_us > 0.0
            ? traced.decide_p50_us / untraced.decide_p50_us - 1.0
            : 0.0;
    for (const char* name : {"gen.late_p99_us", "serve.submit_ns_p50",
                             "serve.rejected", "monitor.feedback_ns_p50",
                             "monitor.feedback_withheld_share",
                             "core.unattributed_share",
                             "core.validate_ns_per_row",
                             "data.transform_ns_per_row",
                             "cluster.match_ns_per_row",
                             "ml.predict_ns_per_row"}) {
      values.emplace(name, 0.0);  // layers this workload does not run
    }

    // Human-readable breakdown, then the spans for offline inspection.
    std::fprintf(stderr, "e2e: %zu %s spans, end-to-end %.3f ms total\n",
                 breakdown.requests, breakdown.root.c_str(),
                 breakdown.end_to_end_ns * 1e-6);
    for (const LayerTime& l : breakdown.layers) {
      std::fprintf(stderr, "  %-18s self %10.3f ms  share %6.2f%%\n",
                   l.layer.c_str(), l.self_ns * 1e-6,
                   100.0 * breakdown.Share(l.layer));
    }
    std::fprintf(stderr, "  %-18s self %10.3f ms  share %6.2f%%\n",
                 "(unattributed)", breakdown.unattributed_ns * 1e-6,
                 100.0 * breakdown.UnattributedShare());
    std::error_code ec;
    std::filesystem::create_directories(config.out_dir, ec);
    const std::string path =
        config.out_dir + "/trace-" + config.workload + ".tsv";
    if (!WriteSpans(spans, path)) {
      std::fprintf(stderr, "e2e: cannot write %s\n", path.c_str());
    }
  }

  const std::vector<std::pair<std::string, std::string>> header = {
      {"benchmark", "falcc_e2e"},
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", std::to_string(config.seconds)},
      {"trace", config.trace ? "1" : "0"},
      {"git_revision", config.revision},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", E2E_BUILD_TYPE},
      {"pool_threads", std::to_string(falcc::Parallelism())},
      {"serve_shards", std::to_string(kServeShards)},
      {"serve_rate_per_s", std::to_string(kServeRate)},
      {"replicas", std::to_string(kReplicas)},
      {"model", ModelDescription()},
      {"snapshot_bytes", std::to_string(setups.back().snapshot_bytes)},
      {"refresh_events", std::to_string(refresh_ms.size())},
  };
  stack.reset();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  std::vector<std::string> missing;
  const std::string line =
      ResultLine(outcome.failed == 0, outcome.attempted, outcome.failed,
                 config.trace, values, &missing);
  if (!missing.empty()) {
    for (const std::string& name : missing) {
      std::fprintf(stderr, "e2e: metric %s was not measured\n", name.c_str());
    }
    return 1;
  }
  std::printf("%s\n%s\n", HeaderLine(header).c_str(), line.c_str());
  std::fflush(stdout);
  return outcome.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::RunConfig config;
  if (!e2e::ParseArgs(argc, argv, &config)) return e2e::Usage();
  return e2e::Run(config);
}
