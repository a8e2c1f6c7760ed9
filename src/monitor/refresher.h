// Per-cluster ensemble refresh: the monitor's response to a drift alarm.
//
// A refresh re-runs the offline phase's assessment step (§3.6) for ONE
// cluster over the cluster's windowed stream samples: the existing pool
// is re-evaluated — no model is retrained — and the combination
// minimizing the windowed L̂ replaces the serving one. Because the
// serving combination is itself in the candidate set, the rebuilt loss
// can never exceed the serving loss on the same window; a refresh is
// installed only on STRICT improvement, so a no-better-alternative
// alarm is rejected (and counted) instead of churning snapshots. The
// install goes through FalccModel::CloneWithRefreshes + the engine's
// lock-free hot-swap, which leaves every other cluster's decisions
// bit-identical.
//
// With `delta_dir` set, every install is also published for replicas
// through one call site: a replicate::DeltaPublisher writes the delta
// (plus, on cadence, a checkpoint) into the directory, and when
// `feed_listen` is set a replicate::SocketPublisher serving that same
// directory is woken to push the new artifacts to its subscribers.
// Publication is best-effort: failures are counted, never propagated,
// and never block the local install.

#ifndef FALCC_MONITOR_REFRESHER_H_
#define FALCC_MONITOR_REFRESHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "monitor/window_stats.h"
#include "serve/engine.h"

namespace falcc::replicate {
class DeltaPublisher;
class SocketPublisher;
}  // namespace falcc::replicate

namespace falcc::monitor {

struct RefresherOptions {
  /// When non-empty, every installed refresh also publishes a delta
  /// artifact into this directory through a replicate::DeltaPublisher:
  /// `<seq>-delta-c<cluster>-<basehash>.falcc`, where <seq> is a
  /// zero-padded monotonic sequence so directory order equals apply
  /// order (plain version numbers sort wrong past 9), written via
  /// temp+rename so a replica never reads a partial artifact. The delta
  /// is the refreshed cluster's combination section plus a manifest
  /// referencing the pre-refresh snapshot by content hash; replicas
  /// serving that base apply it via FalccEngine::ApplyDeltaBytes without
  /// revalidating (or recompiling) any untouched section. Publication
  /// failures never block the local install.
  std::string delta_dir;
  /// Checkpoint cadence: after this many published deltas the publisher
  /// also writes a full-snapshot checkpoint and garbage-collects
  /// superseded artifacts, so late-joining replicas bootstrap without
  /// replaying history. 0 = never checkpoint.
  size_t checkpoint_every = 8;
  /// When non-empty (requires delta_dir), a replicate::SocketPublisher
  /// listening on this endpoint (`tcp://host:port` or `unix://path`)
  /// serves delta_dir: after each publish the refresher wakes it, and it
  /// pushes the new artifacts to connected subscribers, cutting
  /// propagation lag below any poll interval. Like the directory
  /// publisher, the listener is opened lazily on the first install —
  /// subscribers reconnect with backoff, so starting them early is fine.
  std::string feed_listen;
};

/// Result of one refresh attempt.
struct RefreshOutcome {
  size_t cluster = 0;
  bool installed = false;    ///< strict improvement found and hot-swapped
  double current_loss = 0.0; ///< windowed L̂ of the serving combination
  double best_loss = 0.0;    ///< windowed L̂ of the best candidate
  double seconds = 0.0;      ///< wall clock of the rebuild (+install)
  std::string delta_path;    ///< published delta artifact, if any
  size_t delta_bytes = 0;    ///< size of the delta artifact
};

struct RefresherStats {
  uint64_t attempts = 0;
  uint64_t installed = 0;
  uint64_t rejected = 0;  ///< no candidate strictly beat the serving one
  uint64_t delta_published = 0;
  uint64_t delta_failures = 0;  ///< non-fatal: install succeeded anyway
  uint64_t checkpoints_published = 0;  ///< cadence checkpoints written
};

class Refresher {
 public:
  /// The engine whose snapshot is read and (on improvement) replaced.
  /// Must outlive the refresher.
  explicit Refresher(serve::FalccEngine* engine,
                     RefresherOptions options = {});
  ~Refresher();

  /// Rebuilds `cluster`'s combination over `window` (its labeled stream
  /// samples, see WindowStats::Window) and installs the result if it
  /// strictly improves the windowed L̂. Pure pool re-assessment under
  /// the snapshot's stored assessment parameters: PredictMatrix votes
  /// the window's row-major `features` through the pool's kernels
  /// (ModelPool::PredictProbaBatch; a model that does not lower votes
  /// interpreted, with the same result) without building a Dataset,
  /// then ReassessRegion scores every combination of
  /// EnumerateCombinations (and AssessCombination the serving one) from
  /// the model × group confusion table of those votes against the
  /// window's `labels` (RegionLosses).
  Result<RefreshOutcome> RefreshCluster(const ClusterWindow& window,
                                        size_t cluster);

  RefresherStats Stats() const;

 private:
  /// Serializes and writes the delta artifact for an installed refresh.
  /// Best-effort: errors are counted, never propagated.
  void PublishDelta(const FalccModel& next, size_t cluster,
                    uint64_t base_hash, RefreshOutcome* outcome);

  serve::FalccEngine* engine_;
  RefresherOptions options_;
  /// Lazily opened on the first publish (creating the directory then);
  /// sequencing, temp+rename writes, checkpoint cadence, and GC all
  /// live in the publisher. server_ serves the same directory and is
  /// opened alongside it only when feed_listen is set.
  std::unique_ptr<replicate::DeltaPublisher> publisher_;
  std::unique_ptr<replicate::SocketPublisher> server_;
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> installed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> delta_published_{0};
  std::atomic<uint64_t> delta_failures_{0};
  std::atomic<uint64_t> checkpoints_published_{0};
};

}  // namespace falcc::monitor

#endif  // FALCC_MONITOR_REFRESHER_H_
