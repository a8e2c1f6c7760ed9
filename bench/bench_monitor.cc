// Drift-monitor benchmark: what monitoring costs on the serving fast
// path, how fast a targeted label shift is detected, and how long the
// automated per-cluster refresh takes.
//
// Three measurements on the bench_serve serving-scale workload (24 deep
// AdaBoost ensembles over 32 local regions, 20k-row probe set, chunked
// ClassifyBatch):
//
//  * steady_state — the probe set replayed in --chunk-sized batches
//    through (a) a bare engine and (b) an engine with a FairnessMonitor
//    attached, feedback for every decision, and a Poll() per chunk
//    (truth = prediction, detection disabled, so this isolates the
//    logging + feedback + window-maintenance cost). Best of --reps
//    interleaved runs — the minimum estimates intrinsic cost robustly
//    on machines with scheduler noise, where a median can rank the
//    monitored run faster than the bare one. The headline number is
//    the monitored/unmonitored overhead in percent (target: < 5%).
//  * detection — after a clean warm-up pass, the truth stream for the
//    busiest cluster flips to 1 - prediction (a worst-case targeted
//    label shift). Latency is counted in samples from the first shifted
//    decision until the poll that latches the alarm, both globally and
//    on the shifted cluster alone.
//  * refresh — the alarm's automatic refresh (windowed re-assessment of
//    the alarmed cluster over the existing pool + snapshot hot-swap),
//    reported as wall-clock seconds and installed/rejected.
//
// Results go to BENCH_monitor.json. `--model=FILE` caches the trained
// model across runs, as in bench_serve.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/falcc.h"
#include "datagen/synthetic.h"
#include "monitor/monitor.h"
#include "serve/engine.h"
#include "util/timer.h"

namespace falcc {
namespace {

/// Flattens the feature matrix of `data` into a row-major vector.
std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

/// The bench_serve workload: a pool of 24 deep AdaBoost ensembles over
/// 32 local regions, sized so the pool working set exceeds L2.
FalccOptions ServingScaleOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 32;
  opt.trainer.pool_size = 24;
  opt.trainer.estimator_grid = {30, 35, 40, 45, 50, 60};
  opt.trainer.depth_grid = {8, 9};
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

constexpr size_t kDefaultChunk = 256;
constexpr size_t kWindow = 512;
constexpr double kThreshold = 1.0;
constexpr double kSlack = 0.05;
constexpr size_t kMinSamples = 100;

/// Replays the probe set once in `chunk`-sized ClassifyBatch calls.
/// With a monitor: every decision gets feedback (truth = prediction
/// unless `flip_cluster` >= 0, whose decisions get 1 - prediction) and
/// every chunk ends in a Poll(). Returns wall-clock seconds and, via
/// out-params, what the polls saw.
double ReplayOnce(serve::FalccEngine* engine, const std::vector<double>& flat,
                  size_t width, size_t chunk,
                  monitor::FairnessMonitor* mon = nullptr,
                  int64_t flip_cluster = -1,
                  std::vector<monitor::MonitorPollResult>* polls = nullptr) {
  const size_t rows = flat.size() / width;
  Timer wall;
  for (size_t begin = 0; begin < rows; begin += chunk) {
    const size_t take = std::min(chunk, rows - begin);
    ClassifyRequest request;
    request.num_features = width;
    request.features = std::span<const double>(flat.data() + begin * width,
                                               take * width);
    const uint64_t base_id = mon != nullptr ? mon->log().next_id() : 0;
    Result<ClassifyResponse> response = engine->ClassifyBatch(request);
    FALCC_CHECK(response.ok(), "bench: ClassifyBatch failed");
    if (mon == nullptr) continue;
    const std::vector<SampleDecision>& decisions = response.value().decisions;
    for (size_t i = 0; i < decisions.size(); ++i) {
      const bool flip = flip_cluster >= 0 &&
                        decisions[i].cluster == static_cast<size_t>(flip_cluster);
      mon->AddFeedback(base_id + i,
                       flip ? 1 - decisions[i].label : decisions[i].label);
    }
    Result<monitor::MonitorPollResult> poll = mon->Poll();
    FALCC_CHECK(poll.ok(), "bench: Poll failed");
    if (polls != nullptr) polls->push_back(std::move(poll).value());
  }
  return wall.ElapsedSeconds();
}

/// Builds a fresh no-flusher engine serving a deserialized copy of the
/// model (FalccModel is move-only; engines each own a snapshot).
std::unique_ptr<serve::FalccEngine> MakeEngine(const std::string& model_bytes) {
  auto engine = std::make_unique<serve::FalccEngine>();
  engine->Install(FalccModel::LoadBytes(model_bytes).value());
  return engine;
}

int Main(int argc, char** argv) {
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_monitor");

  std::string json_path = "BENCH_monitor.json";
  std::string model_cache;
  size_t reps = 5;
  size_t chunk = kDefaultChunk;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::max(1L, std::atol(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--chunk=", 8) == 0) {
      chunk = std::max(1L, std::atol(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      model_cache = argv[i] + 8;
    }
  }

  SyntheticConfig cfg;
  cfg.num_samples = 12000;
  cfg.seed = 71;
  const Dataset train = GenerateImplicitBias(cfg).value();
  cfg.num_samples = 4000;
  cfg.seed = 72;
  const Dataset validation = GenerateImplicitBias(cfg).value();
  cfg.num_samples = 20000;
  cfg.seed = 73;
  const Dataset probe = GenerateImplicitBias(cfg).value();

  const FalccModel model = [&] {
    if (!model_cache.empty()) {
      Result<FalccModel> cached = FalccModel::LoadMapped(model_cache);
      if (cached.ok()) {
        std::printf("loaded cached model from %s\n", model_cache.c_str());
        return std::move(cached).value();
      }
    }
    std::printf("training serving-scale model (%zu rows)...\n",
                train.num_rows());
    FalccModel trained =
        FalccModel::Train(train, validation, ServingScaleOptions()).value();
    if (!model_cache.empty()) {
      FALCC_CHECK(trained.SaveToFile(model_cache).ok(),
                  "bench: cannot write model cache");
    }
    return trained;
  }();
  std::printf("  pool=%zu clusters=%zu groups=%zu\n", model.pool().size(),
              model.num_clusters(), model.num_groups());

  std::string model_bytes;
  {
    std::ostringstream serialized;
    FALCC_CHECK(model.Save(&serialized).ok(),
                "bench: model serialization failed");
    model_bytes = serialized.str();
  }

  const std::vector<double> flat = Flatten(probe);
  const size_t width = probe.num_features();
  const size_t rows = probe.num_rows();

  // The busiest cluster on the probe set gets the injected shift —
  // maximum per-poll evidence, as a deployment's dominant segment.
  ClassifyRequest reference_request;
  reference_request.features = flat;
  reference_request.num_features = width;
  const ClassifyResponse reference =
      model.ClassifyBatch(reference_request).value();
  std::vector<size_t> per_cluster(model.num_clusters(), 0);
  for (const SampleDecision& d : reference.decisions) ++per_cluster[d.cluster];
  const size_t target = static_cast<size_t>(
      std::max_element(per_cluster.begin(), per_cluster.end()) -
      per_cluster.begin());
  std::printf("  drift target: cluster %zu (%zu of %zu probe rows)\n", target,
              per_cluster[target], rows);

  // --- steady_state: monitored vs unmonitored chunked replay ---------
  // Detection is disabled (huge threshold, no auto-refresh) so the
  // monitored run measures pure logging + feedback + window upkeep.
  std::vector<double> bare_times(reps);
  std::vector<double> monitored_times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    std::unique_ptr<serve::FalccEngine> bare = MakeEngine(model_bytes);
    bare_times[rep] = ReplayOnce(bare.get(), flat, width, chunk);

    std::unique_ptr<serve::FalccEngine> engine = MakeEngine(model_bytes);
    monitor::MonitorOptions options;
    options.window = kWindow;
    options.detector.threshold = 1e18;  // never alarm
    options.auto_refresh = false;
    Result<std::unique_ptr<monitor::FairnessMonitor>> attached =
        monitor::FairnessMonitor::Attach(engine.get(), options);
    FALCC_CHECK(attached.ok(), "bench: Attach failed");
    const std::unique_ptr<monitor::FairnessMonitor> mon =
        std::move(attached).value();
    monitored_times[rep] =
        ReplayOnce(engine.get(), flat, width, chunk, mon.get());
    FALCC_CHECK(mon->log().Stats().appended == rows,
                "bench: monitor missed decisions");
  }
  const double bare_s =
      *std::min_element(bare_times.begin(), bare_times.end());
  const double monitored_s =
      *std::min_element(monitored_times.begin(), monitored_times.end());
  const double overhead_percent = (monitored_s - bare_s) / bare_s * 100.0;
  const double overhead_ns = (monitored_s - bare_s) / rows * 1e9;
  std::printf("=== steady_state (chunk=%zu, best of %zu) ===\n", chunk,
              reps);
  std::printf("  unmonitored %.3fs  monitored %.3fs  overhead %.2f%% "
              "(%.0f ns/decision)\n",
              bare_s, monitored_s, overhead_percent, overhead_ns);

  // --- detection + refresh -------------------------------------------
  std::unique_ptr<serve::FalccEngine> engine = MakeEngine(model_bytes);
  monitor::MonitorOptions options;
  options.window = kWindow;
  options.detector.threshold = kThreshold;
  options.detector.slack = kSlack;
  options.detector.min_samples = kMinSamples;
  Result<std::unique_ptr<monitor::FairnessMonitor>> attached =
      monitor::FairnessMonitor::Attach(engine.get(), options);
  FALCC_CHECK(attached.ok(), "bench: Attach failed");
  const std::unique_ptr<monitor::FairnessMonitor> mon =
      std::move(attached).value();

  // Warm-up pass: clean labels, must stay silent.
  ReplayOnce(engine.get(), flat, width, chunk, mon.get());
  FALCC_CHECK(mon->detector().AlarmedClusters().empty(),
              "bench: false alarm on clean warm-up");
  const uint64_t drift_start_id = mon->log().next_id();

  // Shifted passes: cycle the probe set with the target cluster's truth
  // flipped until the alarm latches (cap: 10 passes).
  size_t alarm_sample = 0;        // global samples after drift start
  size_t alarm_on_cluster = 0;    // target-cluster samples after drift start
  size_t polls_to_alarm = 0;
  monitor::RefreshOutcome refresh;
  bool alarmed = false;
  for (size_t pass = 0; pass < 10 && !alarmed; ++pass) {
    std::vector<monitor::MonitorPollResult> polls;
    ReplayOnce(engine.get(), flat, width, chunk,
               mon.get(), static_cast<int64_t>(target), &polls);
    for (const monitor::MonitorPollResult& poll : polls) {
      if (alarmed) break;
      ++polls_to_alarm;
      if (std::find(poll.new_alarms.begin(), poll.new_alarms.end(), target) !=
          poll.new_alarms.end()) {
        alarmed = true;
        FALCC_CHECK(!poll.refreshes.empty(), "bench: alarm without refresh");
        refresh = poll.refreshes.front();
      }
    }
    if (alarmed) {
      // Positional ids: the alarm poll ends at polls_to_alarm chunks
      // into the shifted stream.
      alarm_sample = std::min(polls_to_alarm * chunk,
                              static_cast<size_t>(mon->log().next_id() -
                                                  drift_start_id));
      alarm_on_cluster = mon->windows().Seen(target) - per_cluster[target];
    }
  }
  FALCC_CHECK(alarmed, "bench: drift never detected");
  std::printf("=== detection (threshold=%.1f slack=%.2f min_samples=%zu) "
              "===\n",
              kThreshold, kSlack, kMinSamples);
  std::printf("  alarm after %zu samples (%zu on the shifted cluster, "
              "%zu polls)\n",
              alarm_sample, alarm_on_cluster, polls_to_alarm);
  std::printf("=== refresh ===\n");
  std::printf("  cluster %zu %s: L %.6f -> %.6f in %.3fs\n", refresh.cluster,
              refresh.installed ? "installed" : "rejected",
              refresh.current_loss, refresh.best_loss, refresh.seconds);

  std::ofstream out(json_path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_monitor.json");
  out << "{\n";
  out << "  \"benchmark\": \"monitor\",\n";
  out << "  \"dataset\": \"implicit\",\n";
  out << "  \"probe_rows\": " << rows << ",\n";
  out << "  \"pool_size\": " << model.pool().size() << ",\n";
  out << "  \"clusters\": " << model.num_clusters() << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"chunk\": " << chunk << ",\n";
  out << "  \"window\": " << kWindow << ",\n";
  bench::WriteProvenance(out);
  out << "  \"note\": \"steady_state replays the probe set chunked with "
         "truth = prediction and detection disabled, isolating logging + "
         "feedback + window upkeep (best-of-reps minima, robust to "
         "scheduler noise); detection flips the busiest cluster's "
         "truth to 1 - prediction after a clean pass and counts samples "
         "until the CUSUM alarm; refresh is the alarm's automatic windowed "
         "re-assessment + hot-swap\",\n";
  out << "  \"steady_state\": {\"unmonitored_seconds\": " << bare_s
      << ", \"monitored_seconds\": " << monitored_s
      << ", \"overhead_percent\": " << overhead_percent
      << ", \"overhead_ns_per_decision\": " << overhead_ns << "},\n";
  out << "  \"detection\": {\"drift_cluster\": " << target
      << ", \"threshold\": " << kThreshold << ", \"slack\": " << kSlack
      << ", \"min_samples\": " << kMinSamples
      << ", \"latency_samples\": " << alarm_sample
      << ", \"latency_samples_on_cluster\": " << alarm_on_cluster
      << ", \"polls\": " << polls_to_alarm << "},\n";
  out << "  \"refresh\": {\"cluster\": " << refresh.cluster
      << ", \"installed\": " << (refresh.installed ? "true" : "false")
      << ", \"current_loss\": " << refresh.current_loss
      << ", \"best_loss\": " << refresh.best_loss
      << ", \"seconds\": " << refresh.seconds << "}\n";
  out << "}\n";
  std::printf("  -> %s\n", json_path.c_str());

  if (overhead_percent >= 5.0) {
    std::fprintf(stderr, "WARNING: monitoring overhead %.2f%% exceeds the "
                         "5%% budget\n",
                 overhead_percent);
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
