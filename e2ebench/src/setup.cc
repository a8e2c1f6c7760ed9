#include "setup.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <utility>

#include "datagen/synthetic.h"
#include "schedule.h"
#include "trace.h"

namespace e2e {

namespace fs = std::filesystem;
using falcc::Result;
using falcc::Status;

namespace {

// Training-set size: bench_serve trains on 12000 rows; half of that
// keeps three set-ups per run inside the benchmark's time budget while
// the model keeps its shape (24 ensembles, depth 8–9, 32 regions) and a
// snapshot tens of MB large, far beyond L2.
constexpr size_t kTrainRows = 6000;
constexpr size_t kValidationRows = 2000;
constexpr size_t kProbeRows = 1 << 16;
// The model is part of the system under test, not of the traffic: its
// training data is fixed, so every run serves the same model and the run
// seed varies only what is sent to it (probe rows, arrivals, drift and
// probe clusters). A seeded model would move every figure with its tree
// shapes, hiding the changes the benchmark exists to show.
constexpr uint64_t kTrainSeed = 71;
constexpr uint64_t kValidationSeed = 72;

falcc::Dataset Generate(size_t rows, uint64_t seed) {
  falcc::SyntheticConfig config;
  config.num_samples = rows;
  config.seed = seed;
  Result<falcc::Dataset> data = falcc::GenerateImplicitBias(config);
  FALCC_CHECK(data.ok(), "e2e: data generation failed");
  return std::move(data).value();
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

}  // namespace

void Outcome::Fail(uint64_t n, const std::string& why) {
  if (n == 0) return;
  failed += n;
  if (reported_ < 20) {
    std::fprintf(stderr, "e2e: FAILED (%llu): %s\n",
                 static_cast<unsigned long long>(n), why.c_str());
  }
  ++reported_;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  inputs.train = Generate(kTrainRows, kTrainSeed);
  inputs.validation = Generate(kValidationRows, kValidationSeed);
  const falcc::Dataset probe = Generate(kProbeRows, StreamSeed(seed, 3));
  inputs.width = probe.num_features();
  inputs.rows = probe.num_rows();
  inputs.probe.reserve(inputs.rows * inputs.width);
  for (size_t i = 0; i < inputs.rows; ++i) {
    const auto row = probe.Row(i);
    inputs.probe.insert(inputs.probe.end(), row.begin(), row.end());
  }
  return inputs;
}

falcc::FalccOptions ModelOptions() {
  falcc::FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 32;
  opt.trainer.pool_size = 24;
  opt.trainer.estimator_grid = {30, 35, 40, 45, 50, 60};
  opt.trainer.depth_grid = {8, 9};
  // Keep every candidate: pool breadth is the point of this model.
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

std::string ModelDescription() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "implicit-bias data, train %zu rows (seed %llu) / "
                "validation %zu rows (seed %llu), probe %zu rows (run "
                "seed); pool 24 AdaBoost (30-60 estimators, depth 8-9), "
                "k = 32",
                kTrainRows, static_cast<unsigned long long>(kTrainSeed),
                kValidationRows,
                static_cast<unsigned long long>(kValidationSeed), kProbeRows);
  return buf;
}

falcc::monitor::MonitorOptions MonitorSettings(const std::string& dir) {
  falcc::monitor::MonitorOptions options;
  options.window = 512;
  // bench_monitor's threshold with twice its slack and min_samples:
  // clean traffic (truth = decision) must never alarm, and its windowed
  // loss is the demographic-parity term alone, whose noise on a window
  // of 100 decisions reaches bench_monitor's slack. A flipped cluster's
  // loss rises by about 0.5 and still alarms within a few polls.
  options.detector.threshold = 1.0;
  options.detector.slack = 0.1;
  options.detector.min_samples = 200;
  options.auto_refresh = true;
  options.delta_dir = dir + "/feed";
  options.checkpoint_every = 8;
  options.feed_listen = "unix://" + dir + "/feed.sock";
  return options;
}

Result<std::unique_ptr<Stack>> Stack::Start(const Inputs& inputs,
                                            const std::string& dir,
                                            SetupTimes* times) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("e2e: cannot create " + dir);
  std::unique_ptr<Stack> stack(new Stack(dir));
  const std::string snapshot_path = dir + "/snapshot.falcc";
  const int64_t begin = NowNs();

  int64_t t = NowNs();
  Result<falcc::FalccModel> trained = falcc::FalccModel::Train(
      inputs.train, inputs.validation, ModelOptions(), &times->stages);
  if (!trained.ok()) return trained.status();
  times->train_s = Since(t);

  t = NowNs();
  Status saved = trained.value().SaveToFile(snapshot_path);
  if (!saved.ok()) return saved;
  times->save_s = Since(t);
  times->snapshot_bytes = fs::file_size(snapshot_path, ec);

  t = NowNs();
  Result<falcc::FalccModel> loaded =
      falcc::FalccModel::LoadMapped(snapshot_path);
  if (!loaded.ok()) return loaded.status();
  times->load_s = Since(t);

  t = NowNs();
  falcc::serve::ShardedEngineOptions engine_options;
  engine_options.num_shards = kServeShards;
  stack->engine_ =
      std::make_unique<falcc::serve::ShardedEngine>(engine_options);
  stack->engine_->Install(std::move(loaded).value());
  Result<std::unique_ptr<falcc::monitor::FairnessMonitor>> monitor =
      falcc::monitor::FairnessMonitor::Attach(stack->engine_.get(),
                                              MonitorSettings(dir));
  if (!monitor.ok()) return monitor.status();
  stack->monitor_ = std::move(monitor).value();

  const std::string endpoint = MonitorSettings(dir).feed_listen;
  for (size_t r = 0; r < kReplicas; ++r) {
    Replica replica;
    replica.engine = std::make_unique<falcc::serve::FalccEngine>();
    Status bootstrapped = replica.engine->ReloadMapped(snapshot_path);
    if (!bootstrapped.ok()) return bootstrapped;
    falcc::replicate::SocketFeedOptions feed_options;
    feed_options.spool_dir = dir + "/spool" + std::to_string(r);
    // The publisher listens from the first refresh on; retry often so
    // the replicas connect within milliseconds of it.
    feed_options.reconnect_initial_seconds = 0.005;
    feed_options.reconnect_max_seconds = 0.02;
    feed_options.jitter_seed = r + 1;
    Result<std::unique_ptr<falcc::replicate::SocketFeed>> feed =
        falcc::replicate::SocketFeed::Connect(endpoint, feed_options);
    if (!feed.ok()) return feed.status();
    replica.feed = feed.value().get();
    falcc::replicate::DeltaPullerOptions puller_options;
    puller_options.jitter_seed = r + 1;
    replica.puller = std::make_unique<falcc::replicate::DeltaPuller>(
        replica.engine.get(), std::move(feed).value(), puller_options);
    replica.puller->Start();
    stack->replicas_.push_back(std::move(replica));
  }
  times->start_s = Since(t);
  times->total_s = Since(begin);
  times->content_hash = stack->PrimaryHash();
  return stack;
}

Stack::~Stack() {
  // Replicas first (their pullers read the feed), then the monitor,
  // whose refresher owns the publisher, then the engine it watches.
  for (Replica& replica : replicas_) {
    if (replica.puller != nullptr) replica.puller->Stop();
  }
  replicas_.clear();
  monitor_.reset();
  if (engine_ != nullptr) engine_->Shutdown();
  engine_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

uint64_t Stack::PrimaryHash() const {
  const std::shared_ptr<const falcc::FalccModel> snapshot = engine_->snapshot();
  if (snapshot == nullptr) return 0;
  Result<uint64_t> hash = snapshot->ContentHash();
  return hash.ok() ? hash.value() : 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace e2e
