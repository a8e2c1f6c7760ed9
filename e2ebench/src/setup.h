// What every workload shares: the seeded inputs, the serving-scale
// model, and the set-up stack — a 2-shard ShardedEngine serving the
// model loaded mapped from a v2 snapshot, a FairnessMonitor whose
// refreshes publish over a unix-socket feed, and two replicas pulling
// that feed.

#ifndef E2EBENCH_SETUP_H_
#define E2EBENCH_SETUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "data/dataset.h"
#include "monitor/monitor.h"
#include "replicate/puller.h"
#include "replicate/socket_feed.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "util/status.h"

namespace e2e {

/// One invocation's settings, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;   ///< scratch for snapshots, feeds, sockets
  std::string out_dir;   ///< where traced runs write their spans
  std::string revision;  ///< source revision, for the header
};

/// Counts operations and failures and collects metric values.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Counts `n` failed operations and says why on stderr (the first few
  /// reasons only, so a systematic failure does not flood the log).
  void Fail(uint64_t n, const std::string& why);

 private:
  size_t reported_ = 0;
};

/// Training and validation data for the offline phase (fixed), and the
/// probe set every workload draws requests from (from the run seed).
struct Inputs {
  falcc::Dataset train;
  falcc::Dataset validation;
  std::vector<double> probe;  ///< row-major, `width` columns
  size_t width = 0;
  size_t rows = 0;

  std::span<const double> Row(size_t i) const {
    return std::span<const double>(probe.data() + i * width, width);
  }
};

Inputs MakeInputs(uint64_t seed);

/// The serving-scale model of bench_serve and bench_monitor: 24 AdaBoost
/// ensembles of depth 8–9 over 32 regions.
falcc::FalccOptions ModelOptions();
std::string ModelDescription();

/// Monitor settings: window 512, CUSUM threshold 1, slack 0.1, 200
/// samples before a cluster is judged; auto-refresh publishing deltas
/// (a checkpoint every 8) to `dir`/feed and over unix://`dir`/feed.sock.
falcc::monitor::MonitorOptions MonitorSettings(const std::string& dir);

constexpr size_t kServeShards = 2;
constexpr size_t kReplicas = 2;

/// Timings of one set-up.
struct SetupTimes {
  double train_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double start_s = 0.0;  ///< engine install, monitor attach, replicas
  double total_s = 0.0;
  falcc::OfflineStageTimes stages;
  uint64_t snapshot_bytes = 0;
  uint64_t content_hash = 0;
};

/// A serving replica: its own snapshot store fed by a DeltaPuller over a
/// SocketFeed (owned by the puller).
struct Replica {
  std::unique_ptr<falcc::serve::FalccEngine> engine;
  const falcc::replicate::SocketFeed* feed = nullptr;
  std::unique_ptr<falcc::replicate::DeltaPuller> puller;
};

/// The set-up stack. Destruction stops the replicas, then the monitor
/// (closing its publisher), then the engine, and removes `dir`.
class Stack {
 public:
  /// Trains, saves, loads mapped and starts everything in `dir`
  /// (created; must not exist). Timings go to `times`.
  static falcc::Result<std::unique_ptr<Stack>> Start(const Inputs& inputs,
                                                     const std::string& dir,
                                                     SetupTimes* times);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  falcc::serve::ShardedEngine& engine() { return *engine_; }
  falcc::monitor::FairnessMonitor& monitor() { return *monitor_; }
  std::vector<Replica>& replicas() { return replicas_; }

  /// Content hash of the primary's serving snapshot (0 if unavailable).
  uint64_t PrimaryHash() const;

 private:
  explicit Stack(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::unique_ptr<falcc::serve::ShardedEngine> engine_;
  std::unique_ptr<falcc::monitor::FairnessMonitor> monitor_;
  std::vector<Replica> replicas_;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

}  // namespace e2e

#endif  // E2EBENCH_SETUP_H_
