// Delta-replication benchmark: how fast a refresh propagates to a
// replica fleet, and what it costs to keep the fleet converged.
//
// A primary publishes refresh events into a DirectoryFeed; a
// ReplicaFleet of --replicas pullers follows it. Two propagation modes
// are measured over the same event stream (one rotated cluster
// combination per event, the monitor Refresher's exact artifact shape):
//
//  * delta  — ~150-byte delta artifacts applied incrementally
//             (checkpoints disabled, so every event is a pure delta)
//  * full   — every event shipped as a full-snapshot checkpoint, which
//             every replica reloads (decoded from a file mapping)
//
// Per event, the lag is publish → every replica's ContentHash equal to
// the primary's (PollAll in a tight loop); p50/p99 over the events. The
// delta mode then takes two more phases:
//
//  * chain break — a delta against a bogus base hash hits the fleet
//    (every replica quarantine-recovers; the feed holds no checkpoint,
//    so recovery retries under backoff), then a repair checkpoint is
//    published and the time back to convergence is measured.
//  * bit identity — every replica's decisions on a probe set are
//    compared field-by-field against the primary's final model.
//
// A fourth section measures the sharded observer fan-in satellite: a
// ShardedEngine replays the probe set with and without a fleet-wide
// DecisionLog observer attached (best of --reps).
//
// A fifth section compares feed TRANSPORTS end to end: the same delta
// stream is followed by background-pulling fleets over (a) an
// inotify-woken directory and (b) a unix-socket push feed
// (SocketPublisher/SocketFeed). Lag here is publish → converged WALL
// time with the pullers free-running on their own threads, so the poll
// interval is part of the cost — the number a deployment actually sees,
// unlike the tight-PollAll-loop mode section above. The socket fleet's
// decisions are also compared bit-for-bit against the primary.
// `--transport=socket` (or `=directory`) runs only that transport's
// rows and gate — the CI smoke for the socket path.
//
// Results go to BENCH_replicate.json. The exit code gates REPLICA
// DIVERGENCE only (a replica failing to converge, a bit mismatch, or a
// failed chain-break recovery, on any transport) — lag comparisons are
// reported, not gated. `--smoke` shrinks the workload for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/falcc.h"
#include "datagen/synthetic.h"
#include "monitor/decision_log.h"
#include "replicate/fleet.h"
#include "replicate/publisher.h"
#include "replicate/socket_feed.h"
#include "serve/sharded_engine.h"
#include "util/timer.h"

namespace falcc {
namespace {

namespace fs = std::filesystem;

std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

/// Mid-scale workload: enough pool depth that a full snapshot is
/// hundreds of KB (so full-vs-delta lag is a real contrast) without
/// bench_serve's training bill.
FalccOptions ReplicationScaleOptions(bool smoke) {
  FalccOptions opt;
  opt.seed = 42;
  if (smoke) {
    opt.fixed_k = 4;
    opt.trainer.pool_size = 3;
    opt.trainer.estimator_grid = {5};
    opt.trainer.depth_grid = {1, 4};
  } else {
    opt.fixed_k = 16;
    opt.trainer.pool_size = 12;
    opt.trainer.estimator_grid = {20, 25};
    opt.trainer.depth_grid = {6, 7};
    opt.trainer.accuracy_tolerance = 1.0;
  }
  return opt;
}

double PercentileMs(std::vector<double> seconds, double p) {
  FALCC_CHECK(!seconds.empty(), "bench: percentile of empty sample");
  std::sort(seconds.begin(), seconds.end());
  const size_t rank = std::min(
      seconds.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(seconds.size())));
  return seconds[rank] * 1e3;
}

double MeanMs(const std::vector<double>& seconds) {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum / static_cast<double>(seconds.size()) * 1e3;
}

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The version after `base`: one rotated cluster combination, the same
/// shape the monitor's Refresher installs and publishes.
FalccModel NextVersion(const FalccModel& base, size_t cluster) {
  ModelCombination combo = base.selected_combinations()[cluster];
  combo[0] = (combo[0] + 1) % base.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = cluster;
  refresh.combination = combo;
  refresh.baseline_loss = 0.25;
  return base.CloneWithRefreshes({&refresh, 1}).value();
}

uint64_t HashOf(const FalccModel& model) { return model.ContentHash().value(); }

enum class Mode { kDelta, kFull };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kDelta: return "delta";
    case Mode::kFull: return "full";
  }
  return "?";
}

struct ModeResult {
  std::vector<double> lag_seconds;  ///< one per event
  size_t diverged = 0;              ///< events where a replica never converged
  uint64_t delta_bytes = 0;         ///< last delta artifact size (delta mode)
  uint64_t full_bytes = 0;          ///< last checkpoint artifact size
};

/// Publishes `events` refresh events in the given mode and measures the
/// publish → fleet-converged lag for each.
ModeResult RunMode(Mode mode, const std::string& model_path,
                   const FalccModel& v0, size_t replicas, size_t events) {
  const std::string dir =
      FreshDir(std::string("bench_replicate_") + ModeName(mode));
  replicate::DeltaPublisherOptions publisher_options;
  publisher_options.dir = dir;
  publisher_options.checkpoint_every = 0;  // events decide what ships
  replicate::DeltaPublisher publisher =
      replicate::DeltaPublisher::Open(publisher_options).value();

  replicate::ReplicaFleetOptions fleet_options;
  fleet_options.num_replicas = replicas;
  fleet_options.feed_dir = dir;
  fleet_options.puller.backoff_initial_seconds = 0.001;
  replicate::ReplicaFleet fleet(fleet_options);
  FALCC_CHECK(fleet.Bootstrap(model_path).ok(), "bench: bootstrap failed");

  ModeResult result;
  FalccModel head = FalccModel::LoadMapped(model_path).value();
  FALCC_CHECK(HashOf(head) == HashOf(v0), "bench: v0 hash drift");
  for (size_t event = 0; event < events; ++event) {
    const size_t cluster = event % head.num_clusters();
    FalccModel next = NextVersion(head, cluster);
    const uint64_t target = HashOf(next);
    Timer lag;
    if (mode == Mode::kDelta) {
      const size_t clusters[] = {cluster};
      const replicate::PublishReport report =
          publisher.PublishDelta(next, clusters, HashOf(head)).value();
      result.delta_bytes = report.artifacts.front().bytes;
    } else {
      const replicate::PublishReport report =
          publisher.PublishCheckpoint(next).value();
      result.full_bytes = report.artifacts.front().bytes;
    }
    bool converged = false;
    for (size_t poll = 0; poll < 10000 && !converged; ++poll) {
      fleet.PollAll();
      converged = fleet.ConvergedTo(target);
    }
    if (converged) {
      result.lag_seconds.push_back(lag.ElapsedSeconds());
    } else {
      ++result.diverged;
    }
    head = std::move(next);
  }
  return result;
}

struct TransportResult {
  std::vector<double> lag_seconds;  ///< one per event (wall, free-running)
  size_t diverged = 0;              ///< events that missed the deadline
  size_t decision_mismatches = 0;   ///< replica decisions != primary's
};

/// End-to-end transport lag: a background-pulling fleet follows the
/// delta stream over `transport` (directory_inotify or socket); per
/// event the clock runs from publish to every replica
/// serving the new hash, with the pullers pacing themselves — so the
/// poll interval (the re-poll ceiling pushes and inotify wakes cut
/// short) is part of the measured cost. Afterwards every replica's
/// probe decisions are compared field-by-field against the primary's.
TransportResult RunTransport(const std::string& transport,
                             const std::string& model_path,
                             const FalccModel& v0, size_t replicas,
                             size_t events, const ClassifyRequest& probe) {
  const std::string dir = FreshDir("bench_replicate_t_" + transport);
  // The re-poll ceiling: event-woken transports should come in far
  // under it.
  const double poll_interval = 0.05;

  replicate::DeltaPublisherOptions publisher_options;
  publisher_options.dir = dir;
  publisher_options.checkpoint_every = 0;  // pure delta stream
  replicate::DeltaPublisher publisher =
      replicate::DeltaPublisher::Open(publisher_options).value();
  std::unique_ptr<replicate::SocketPublisher> server;

  replicate::ReplicaFleetOptions fleet_options;
  fleet_options.num_replicas = replicas;
  fleet_options.puller.backoff_initial_seconds = 0.001;
  fleet_options.puller.poll_interval_seconds = poll_interval;
  if (transport == "socket") {
    replicate::SocketPublisherOptions options;
    options.listen =
        "unix://" +
        (fs::temp_directory_path() / "bench_replicate_feed.sock").string();
    options.dir = dir;
    server = replicate::SocketPublisher::Open(std::move(options)).value();
    fleet_options.feed_endpoint = server->endpoint();
    fleet_options.socket.reconnect_initial_seconds = 0.01;
  } else {
    fleet_options.feed_dir = dir;
  }

  replicate::ReplicaFleet fleet(fleet_options);
  FALCC_CHECK(fleet.Bootstrap(model_path).ok(), "bench: bootstrap failed");
  fleet.StartAll();

  TransportResult result;
  FalccModel head = FalccModel::LoadMapped(model_path).value();
  FALCC_CHECK(HashOf(head) == HashOf(v0), "bench: v0 hash drift");
  for (size_t event = 0; event < events; ++event) {
    const size_t cluster = event % head.num_clusters();
    FalccModel next = NextVersion(head, cluster);
    const uint64_t target = HashOf(next);
    const size_t clusters[] = {cluster};
    Timer lag;
    publisher.PublishDelta(next, clusters, HashOf(head)).value();
    if (server != nullptr) server->ForwardNewArtifacts().value();
    bool converged = false;
    while (!converged && lag.ElapsedSeconds() < 30.0) {
      converged = fleet.ConvergedTo(target);
      if (!converged) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    if (converged) {
      result.lag_seconds.push_back(lag.ElapsedSeconds());
    } else {
      ++result.diverged;
    }
    head = std::move(next);
  }
  fleet.StopAll();

  const ClassifyResponse reference = head.ClassifyBatch(probe).value();
  for (size_t r = 0; r < fleet.size(); ++r) {
    const ClassifyResponse replica =
        fleet.engine(r)->ClassifyBatch(probe).value();
    for (size_t i = 0; i < reference.decisions.size(); ++i) {
      const SampleDecision& p = reference.decisions[i];
      const SampleDecision& d = replica.decisions[i];
      if (p.label != d.label || p.probability != d.probability ||
          p.cluster != d.cluster || p.group != d.group || p.model != d.model) {
        ++result.decision_mismatches;
      }
    }
  }
  if (server != nullptr) server->Close();
  return result;
}

int Main(int argc, char** argv) {
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_replicate");

  std::string json_path = "BENCH_replicate.json";
  std::string model_cache;
  std::string transport = "all";
  size_t replicas = 4;
  size_t events = 16;
  size_t reps = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--replicas=", 11) == 0) {
      replicas = std::max(1L, std::atol(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      events = std::max(1L, std::atol(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::max(1L, std::atol(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      model_cache = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      transport = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) events = std::min<size_t>(events, 6);
  if (transport != "all" && transport != "socket" &&
      transport != "directory") {
    std::fprintf(stderr, "--transport must be all, socket, or directory\n");
    return 2;
  }

  SyntheticConfig cfg;
  cfg.num_samples = smoke ? 2000 : 8000;
  cfg.seed = 71;
  const Dataset train = GenerateImplicitBias(cfg).value();
  cfg.num_samples = smoke ? 1000 : 3000;
  cfg.seed = 72;
  const Dataset validation = GenerateImplicitBias(cfg).value();
  cfg.num_samples = smoke ? 2000 : 8000;
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
    std::printf("training replication-scale model (%zu rows)...\n",
                train.num_rows());
    FalccModel trained =
        FalccModel::Train(train, validation, ReplicationScaleOptions(smoke))
            .value();
    if (!model_cache.empty()) {
      FALCC_CHECK(trained.SaveToFile(model_cache).ok(),
                  "bench: cannot write model cache");
    }
    return trained;
  }();
  std::printf("  pool=%zu clusters=%zu groups=%zu\n", model.pool().size(),
              model.num_clusters(), model.num_groups());

  const std::string model_path =
      (fs::temp_directory_path() / "bench_replicate_v0.falcc").string();
  FALCC_CHECK(model.SaveToFile(model_path).ok(), "bench: cannot save v0");
  const uint64_t snapshot_bytes = fs::file_size(model_path);

  const std::vector<double> flat = Flatten(probe);
  const size_t width = probe.num_features();
  ClassifyRequest probe_request;
  probe_request.features = flat;
  probe_request.num_features = width;

  // --- transport lag (free-running pullers) ---------------------------
  std::vector<std::string> transport_names;
  if (transport == "all" || transport == "directory") {
    transport_names.push_back("directory_inotify");
  }
  if (transport == "all" || transport == "socket") {
    transport_names.push_back("socket");
  }
  std::vector<TransportResult> transport_results;
  size_t transport_diverged = 0;
  size_t transport_mismatches = 0;
  for (const std::string& name : transport_names) {
    transport_results.push_back(
        RunTransport(name, model_path, model, replicas, events,
                     probe_request));
    const TransportResult& r = transport_results.back();
    transport_diverged += r.diverged;
    transport_mismatches += r.decision_mismatches;
    std::printf("=== transport %s (%zu replicas, %zu events, 50ms re-poll "
                "ceiling) ===\n",
                name.c_str(), replicas, events);
    if (r.lag_seconds.empty()) {
      std::printf("  DIVERGED on every event\n");
    } else {
      std::printf(
          "  lag p50 %.3fms  p99 %.3fms  mean %.3fms  diverged %zu  "
          "decision mismatches %zu\n",
          PercentileMs(r.lag_seconds, 50), PercentileMs(r.lag_seconds, 99),
          MeanMs(r.lag_seconds), r.diverged, r.decision_mismatches);
    }
  }
  const auto transports_json = [&](std::ostream& out) {
    out << "  \"transports\": {";
    for (size_t t = 0; t < transport_names.size(); ++t) {
      const TransportResult& r = transport_results[t];
      out << (t == 0 ? "\n" : ",\n");
      out << "    \"" << transport_names[t] << "\": {";
      if (r.lag_seconds.empty()) {
        out << "\"diverged\": " << r.diverged;
      } else {
        out << "\"p50_ms\": " << PercentileMs(r.lag_seconds, 50)
            << ", \"p99_ms\": " << PercentileMs(r.lag_seconds, 99)
            << ", \"mean_ms\": " << MeanMs(r.lag_seconds)
            << ", \"diverged\": " << r.diverged;
      }
      out << ", \"decision_mismatches\": " << r.decision_mismatches << "}";
    }
    out << "\n  }";
  };

  if (transport != "all") {
    // Transport-only run (the CI socket smoke): write a reduced JSON and
    // gate on convergence + decision identity for the selected rows.
    std::ofstream out(json_path);
    FALCC_CHECK(static_cast<bool>(out), "cannot open transport JSON");
    out << "{\n";
    out << "  \"benchmark\": \"replicate\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"transport_only\": \"" << transport << "\",\n";
    out << "  \"replicas\": " << replicas << ",\n";
    out << "  \"events_per_transport\": " << events << ",\n";
    transports_json(out);
    out << "\n}\n";
    std::printf("  -> %s\n", json_path.c_str());
    if (transport_diverged > 0 || transport_mismatches > 0) {
      std::fprintf(stderr,
                   "FAILED: transport divergence (diverged=%zu "
                   "mismatches=%zu)\n",
                   transport_diverged, transport_mismatches);
      return 1;
    }
    return 0;
  }

  // --- propagation lag per mode ---------------------------------------
  size_t diverged_total = 0;
  const Mode modes[] = {Mode::kDelta, Mode::kFull};
  constexpr size_t kModes = std::size(modes);
  ModeResult results[kModes];
  for (size_t m = 0; m < kModes; ++m) {
    results[m] = RunMode(modes[m], model_path, model, replicas, events);
    diverged_total += results[m].diverged;
    std::printf("=== %s (%zu replicas, %zu events) ===\n", ModeName(modes[m]),
                replicas, events);
    if (results[m].lag_seconds.empty()) {
      std::printf("  DIVERGED on every event\n");
      continue;
    }
    std::printf("  lag p50 %.3fms  p99 %.3fms  mean %.3fms  diverged %zu\n",
                PercentileMs(results[m].lag_seconds, 50),
                PercentileMs(results[m].lag_seconds, 99),
                MeanMs(results[m].lag_seconds), results[m].diverged);
  }
  std::printf("  artifact sizes: snapshot %zu B, delta %zu B (%.1fx smaller)\n",
              static_cast<size_t>(snapshot_bytes),
              static_cast<size_t>(results[0].delta_bytes),
              results[0].delta_bytes > 0
                  ? static_cast<double>(snapshot_bytes) /
                        static_cast<double>(results[0].delta_bytes)
                  : 0.0);

  // --- chain-break recovery -------------------------------------------
  // A fresh delta fleet converges on v1, then a delta against a bogus
  // base hash hits it. The feed holds no checkpoint, so every replica
  // sits in recovery (still serving v1) until the repair checkpoint
  // lands; the clock runs from the repair publish to reconvergence.
  const std::string break_dir = FreshDir("bench_replicate_break");
  replicate::DeltaPublisherOptions break_publisher_options;
  break_publisher_options.dir = break_dir;
  break_publisher_options.checkpoint_every = 0;
  replicate::DeltaPublisher break_publisher =
      replicate::DeltaPublisher::Open(break_publisher_options).value();
  replicate::ReplicaFleetOptions break_fleet_options;
  break_fleet_options.num_replicas = replicas;
  break_fleet_options.feed_dir = break_dir;
  break_fleet_options.puller.backoff_initial_seconds = 0.001;
  replicate::ReplicaFleet break_fleet(break_fleet_options);
  FALCC_CHECK(break_fleet.Bootstrap(model_path).ok(),
              "bench: bootstrap failed");

  FalccModel v1 = NextVersion(model, 0);
  const size_t c0[] = {0};
  break_publisher.PublishDelta(v1, c0, HashOf(model)).value();
  for (size_t poll = 0; poll < 10000 && !break_fleet.ConvergedTo(HashOf(v1));
       ++poll) {
    break_fleet.PollAll();
  }
  FALCC_CHECK(break_fleet.ConvergedTo(HashOf(v1)),
              "bench: fleet lost before the break");

  FalccModel v2 = NextVersion(v1, 1);
  const size_t c1[] = {1};
  break_publisher.PublishDelta(v2, c1, /*bogus base=*/0x1234abcdull).value();
  for (int poll = 0; poll < 4; ++poll) break_fleet.PollAll();
  // Still serving v1 — the cardinal rule under a broken chain.
  const size_t serving_during_break = break_fleet.CountConverged(HashOf(v1));

  Timer recovery;
  break_publisher.PublishCheckpoint(v2).value();
  bool recovered = false;
  for (size_t poll = 0; poll < 20000 && !recovered; ++poll) {
    break_fleet.PollAll();
    recovered = break_fleet.ConvergedTo(HashOf(v2));
  }
  const double recovery_seconds = recovery.ElapsedSeconds();
  std::printf("=== chain break ===\n");
  std::printf("  %zu/%zu replicas kept serving v1 through the break; "
              "recovery to v2 %s in %.3fms\n",
              serving_during_break, replicas,
              recovered ? "converged" : "FAILED", recovery_seconds * 1e3);

  // --- bit identity ----------------------------------------------------
  const ClassifyResponse reference = v2.ClassifyBatch(probe_request).value();
  size_t mismatches = 0;
  for (size_t r = 0; r < break_fleet.size(); ++r) {
    const ClassifyResponse replica =
        break_fleet.engine(r)->ClassifyBatch(probe_request).value();
    for (size_t i = 0; i < reference.decisions.size(); ++i) {
      const SampleDecision& p = reference.decisions[i];
      const SampleDecision& d = replica.decisions[i];
      if (p.label != d.label || p.probability != d.probability ||
          p.cluster != d.cluster || p.group != d.group || p.model != d.model) {
        ++mismatches;
      }
    }
  }
  std::printf("=== bit identity ===\n");
  std::printf("  %zu replicas x %zu probe rows: %zu mismatched decisions\n",
              break_fleet.size(), reference.decisions.size(), mismatches);

  // --- sharded observer fan-in overhead -------------------------------
  const std::string model_bytes = [&] {
    std::ostringstream out;
    FALCC_CHECK(model.Save(&out).ok(), "bench: serialize failed");
    return out.str();
  }();
  const size_t rows = probe.num_rows();
  std::vector<double> bare_times(reps);
  std::vector<double> observed_times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const bool observe : {false, true}) {
      serve::ShardedEngineOptions sharded_options;
      sharded_options.num_shards = 4;
      serve::ShardedEngine engine(sharded_options);
      engine.Install(FalccModel::LoadBytes(model_bytes).value());
      if (observe) {
        engine.SetObserver(
            std::make_shared<monitor::DecisionLog>(1 << 15, width));
      }
      Timer wall;
      std::vector<serve::ShardTicket> tickets;
      const size_t wave = 1024;
      for (size_t begin = 0; begin < rows; begin += wave) {
        const size_t take = std::min(wave, rows - begin);
        tickets.clear();
        tickets.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          tickets.push_back(
              engine
                  .SubmitWithKey(begin + i,
                                 std::span<const double>(
                                     flat.data() + (begin + i) * width, width))
                  .value());
        }
        for (const serve::ShardTicket& ticket : tickets) {
          FALCC_CHECK(ticket.Wait().ok(), "bench: ticket failed");
        }
      }
      const double seconds = wall.ElapsedSeconds();
      (observe ? observed_times : bare_times)[rep] = seconds;
      if (observe) {
        FALCC_CHECK(engine.GetMetrics().observed == rows,
                    "bench: observer missed decisions");
      }
      engine.Shutdown();
    }
  }
  const double bare_s = *std::min_element(bare_times.begin(), bare_times.end());
  const double observed_s =
      *std::min_element(observed_times.begin(), observed_times.end());
  const double observer_overhead_percent =
      (observed_s - bare_s) / bare_s * 100.0;
  std::printf("=== sharded observer (4 shards, best of %zu) ===\n", reps);
  std::printf("  bare %.3fs  observed %.3fs  overhead %.2f%%\n", bare_s,
              observed_s, observer_overhead_percent);

  // --- JSON -------------------------------------------------------------
  std::ofstream out(json_path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_replicate.json");
  out << "{\n";
  out << "  \"benchmark\": \"replicate\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"replicas\": " << replicas << ",\n";
  out << "  \"events_per_mode\": " << events << ",\n";
  out << "  \"events_per_transport\": " << events << ",\n";
  out << "  \"snapshot_bytes\": " << snapshot_bytes << ",\n";
  out << "  \"delta_bytes\": " << results[0].delta_bytes << ",\n";
  bench::WriteProvenance(out);
  out << "  \"note\": \"per-mode lag is publish -> every replica's "
         "ContentHash equals the primary's, over one rotated-combination "
         "event per entry; chain_break injects a delta against a bogus "
         "base into a checkpoint-free feed and times the repair-checkpoint "
         "recovery; bit_identity compares every replica's probe decisions "
         "field-by-field against the primary; sharded_observer replays "
         "the probe through a 4-shard engine with and without a "
         "DecisionLog observer (best-of-reps minima)\",\n";
  out << "  \"modes\": {";
  for (size_t m = 0; m < kModes; ++m) {
    const ModeResult& r = results[m];
    out << (m == 0 ? "\n" : ",\n");
    out << "    \"" << ModeName(modes[m]) << "\": {";
    if (r.lag_seconds.empty()) {
      out << "\"diverged\": " << r.diverged << "}";
    } else {
      out << "\"p50_ms\": " << PercentileMs(r.lag_seconds, 50)
          << ", \"p99_ms\": " << PercentileMs(r.lag_seconds, 99)
          << ", \"mean_ms\": " << MeanMs(r.lag_seconds)
          << ", \"diverged\": " << r.diverged << "}";
    }
  }
  out << "\n  },\n";
  out << "  \"transport_note\": \"transports follow the same delta stream "
         "with FREE-RUNNING background pullers (50ms re-poll ceiling), so "
         "lag includes the waiting a deployment actually pays: "
         "directory_inotify wakes on the rename, socket wakes on the "
         "pushed frame; "
         "decision_mismatches compares every replica's probe decisions "
         "field-by-field against the primary's\",\n";
  transports_json(out);
  out << ",\n";
  out << "  \"chain_break\": {\"serving_through_break\": "
      << serving_during_break << ", \"recovered\": "
      << (recovered ? "true" : "false")
      << ", \"recovery_ms\": " << recovery_seconds * 1e3 << "},\n";
  out << "  \"bit_identity\": {\"probe_rows\": " << reference.decisions.size()
      << ", \"mismatches\": " << mismatches << "},\n";
  out << "  \"sharded_observer\": {\"bare_seconds\": " << bare_s
      << ", \"observed_seconds\": " << observed_s
      << ", \"overhead_percent\": " << observer_overhead_percent << "}\n";
  out << "}\n";
  std::printf("  -> %s\n", json_path.c_str());

  // Informational comparison (not gated): delta apply should beat the
  // full-reload path once the model is big enough to matter.
  if (!results[0].lag_seconds.empty() && !results[1].lag_seconds.empty() &&
      PercentileMs(results[0].lag_seconds, 99) >=
          PercentileMs(results[1].lag_seconds, 50)) {
    std::fprintf(stderr,
                 "WARNING: delta-apply p99 did not beat full-reload p50\n");
  }

  // The gate: replicas must converge, recover, and match bit-for-bit —
  // on every transport.
  const bool diverged =
      diverged_total > 0 || !recovered || mismatches > 0 ||
      serving_during_break != replicas || transport_diverged > 0 ||
      transport_mismatches > 0;
  if (diverged) {
    std::fprintf(stderr, "FAILED: replica divergence detected "
                         "(diverged=%zu recovered=%d mismatches=%zu "
                         "serving_through_break=%zu transport_diverged=%zu "
                         "transport_mismatches=%zu)\n",
                 diverged_total, recovered ? 1 : 0, mismatches,
                 serving_during_break, transport_diverged,
                 transport_mismatches);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
