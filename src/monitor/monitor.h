// FairnessMonitor: the online drift-monitoring + refresh subsystem.
//
// Wiring (DESIGN.md §11):
//
//   FalccEngine ──OnDecision──▶ DecisionLog ◀──AddFeedback── truth source
//                                   │ DrainLabeled (Poll)
//                                   ▼
//                              WindowStats ──L̂_window──▶ DriftDetector
//                                   │ Window(c)               │ alarm
//                                   ▼                         ▼
//                               Refresher ◀───────── alarmed clusters
//                                   │ CloneWithRefreshes + Install
//                                   ▼
//                             FalccEngine (hot-swap)
//
// The serving hot path only ever touches the lock-free DecisionLog;
// everything downstream runs on whichever thread calls Poll() —
// typically a background loop or the replay driver between chunks.
// Attach requires a snapshot that carries the offline per-cluster
// baseline losses (models saved before monitoring existed load without
// them; retrain or re-save to monitor those).

#ifndef FALCC_MONITOR_MONITOR_H_
#define FALCC_MONITOR_MONITOR_H_

#include <memory>
#include <string>
#include <vector>

#include "monitor/decision_log.h"
#include "monitor/drift_detector.h"
#include "monitor/refresher.h"
#include "monitor/window_stats.h"
#include "serve/engine.h"

namespace falcc::monitor {

struct MonitorOptions {
  /// Decision-log ring capacity (rounded up to a power of two). Bounds
  /// how many decisions can await delayed feedback.
  size_t log_capacity = 1 << 14;
  /// Labeled samples retained per cluster (WindowStats W).
  size_t window = 512;
  DriftDetectorOptions detector;
  /// Attempt a refresh automatically inside Poll() for every latched
  /// alarm. Disable to observe alarms and refresh manually.
  bool auto_refresh = true;
  /// Forwarded to RefresherOptions::delta_dir: when non-empty, every
  /// installed refresh also publishes a delta artifact there (through a
  /// replicate::DeltaPublisher — sequence-numbered, temp+rename) for
  /// replicas to apply incrementally.
  std::string delta_dir;
  /// Forwarded to RefresherOptions::checkpoint_every: a full-snapshot
  /// checkpoint is published to delta_dir after this many deltas so
  /// late-joining replicas bootstrap without replaying history (0 =
  /// never).
  size_t checkpoint_every = 8;
  /// Forwarded to RefresherOptions::feed_listen: when non-empty (with
  /// delta_dir set), published artifacts are also pushed to socket
  /// subscribers on this endpoint (`tcp://host:port` or `unix://path`)
  /// so replicas see refreshes without polling the directory.
  std::string feed_listen;
};

/// What one Poll() did.
struct MonitorPollResult {
  size_t drained = 0;               ///< labeled decisions ingested
  std::vector<size_t> new_alarms;   ///< clusters latched this poll
  std::vector<RefreshOutcome> refreshes;  ///< refresh attempts this poll
};

/// Per-cluster monitoring state for summaries.
struct ClusterMonitorState {
  size_t cluster = 0;
  size_t window_count = 0;
  double windowed_loss = 0.0;  ///< 0 when the window is empty
  double baseline = 0.0;
  double score = 0.0;  ///< CUSUM statistic
  bool alarmed = false;
};

struct MonitorSummary {
  DecisionLogStats log;
  RefresherStats refresh;
  size_t num_clusters = 0;
  size_t num_alarmed = 0;
  std::vector<ClusterMonitorState> clusters;

  /// Single JSON object (counters + per-cluster array).
  std::string ToJson() const;
};

class FairnessMonitor {
 public:
  /// Subscribes a monitor to `engine`'s decision stream. Requires an
  /// installed snapshot with baseline losses (has_baseline_losses());
  /// claims the engine's (set-once) observer slot. The engine must
  /// outlive the monitor. A ShardedEngine passes as its snapshot store:
  /// decisions fan in from every shard (the DecisionLog ring is
  /// multi-writer safe), and a refresh installed on the store is what
  /// every shard serves on its next flush.
  static Result<std::unique_ptr<FairnessMonitor>> Attach(
      serve::FalccEngine* engine, MonitorOptions options = {});

  /// Reports ground truth for decision `id` (ids are assigned in
  /// append order; see DecisionLog). Thread-safe, wait-free. Returns
  /// false if the decision already aged out of the log.
  bool AddFeedback(uint64_t id, int truth_label);

  /// Drains labeled decisions into the windows, steps the drift
  /// detector for every cluster that received samples, and (with
  /// auto_refresh) rebuilds alarmed clusters. Single-threaded: at most
  /// one concurrent caller.
  Result<MonitorPollResult> Poll();

  const DecisionLog& log() const { return *log_; }
  const WindowStats& windows() const { return windows_; }
  const DriftDetector& detector() const { return detector_; }
  RefresherStats refresher_stats() const { return refresher_.Stats(); }

  MonitorSummary Summary() const;

 private:
  FairnessMonitor(serve::FalccEngine* engine, MonitorOptions options,
                  std::shared_ptr<DecisionLog> log,
                  WindowStatsOptions window_options,
                  std::vector<double> baselines);

  serve::FalccEngine* engine_;
  MonitorOptions options_;
  std::shared_ptr<DecisionLog> log_;  // shared with the engine's observer slot
  WindowStats windows_;
  DriftDetector detector_;
  Refresher refresher_;
};

}  // namespace falcc::monitor

#endif  // FALCC_MONITOR_MONITOR_H_
