// Sliding-window estimators of the per-cluster serving loss.
//
// For every cluster the monitor keeps the last W labeled decisions
// (ground truth, prediction, sensitive group, and the raw feature
// vector, which the refresher needs to re-run assessment). Alongside
// the ring, a per-(group, truth, prediction) confusion table is
// maintained incrementally — O(1) per add/evict — and the windowed L̂
// (λ·inaccuracy + (1−λ)·bias, Eq. 2) calls fairness/loss.h's
// LossFromCounts on that table: the same evaluator CombinedLoss runs,
// so the windowed loss is bit-identical to re-running CombinedLoss over
// the window's samples. Consistency mode replaces the bias with its
// closed form over the window's positive count.
//
// Single-threaded by design: only the monitor's Poll loop touches it
// (the cross-thread handoff happens in DecisionLog).

#ifndef FALCC_MONITOR_WINDOW_STATS_H_
#define FALCC_MONITOR_WINDOW_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/assessment.h"

namespace falcc::monitor {

struct WindowStatsOptions {
  size_t window = 512;  ///< W: labeled samples retained per cluster
  size_t num_clusters = 0;
  size_t num_groups = 0;
  size_t num_features = 0;
  /// Assessment parameters the loss is measured under — must match the
  /// snapshot's, or the drift comparison against its baselines is
  /// meaningless.
  double lambda = 0.5;
  FairnessMetric metric = FairnessMetric::kDemographicParity;
  AssessmentMode mode = AssessmentMode::kGroupFairness;
};

/// Windowed Eq. 2 breakdown of one cluster.
struct WindowLoss {
  double inaccuracy = 0.0;
  double bias = 0.0;
  double combined = 0.0;
  size_t count = 0;  ///< samples in the window
};

/// One cluster's window contents, oldest to newest — the refresher's
/// working set. `features` is row-major with num_features columns.
struct ClusterWindow {
  std::vector<double> features;
  std::vector<int> labels;  ///< ground truth
  std::vector<int> predictions;
  std::vector<size_t> groups;
};

class WindowStats {
 public:
  explicit WindowStats(WindowStatsOptions options);

  /// Appends one labeled decision to `cluster`'s window, evicting the
  /// oldest entry when full. O(1) count updates + one feature copy.
  void Add(size_t cluster, size_t group, int truth, int predicted,
           std::span<const double> features);

  /// Current window size of `cluster`.
  size_t Count(size_t cluster) const;
  /// Total samples ever added to `cluster` (not reset by eviction).
  uint64_t Seen(size_t cluster) const;
  /// Window count of (group, truth, predicted) in `cluster`.
  uint64_t GroupCount(size_t cluster, size_t group, int truth,
                      int predicted) const;

  /// Windowed L̂ of `cluster`; InvalidArgument on an empty window.
  Result<WindowLoss> Loss(size_t cluster) const;

  /// Copies out the window contents (oldest → newest).
  ClusterWindow Window(size_t cluster) const;

  /// Empties `cluster`'s window (after a refresh: the retained
  /// predictions came from the replaced combination). Seen() keeps
  /// counting.
  void Clear(size_t cluster);

  const WindowStatsOptions& options() const { return options_; }

 private:
  struct Ring {
    std::vector<double> features;  // window * num_features, row-major
    std::vector<int> labels;
    std::vector<int> predictions;
    std::vector<size_t> groups;
    std::vector<double> counts;  // num_groups * 4, see ConfusionIndex
    size_t size = 0;
    size_t head = 0;  // next write position
    uint64_t seen = 0;
  };

  WindowStatsOptions options_;
  std::vector<Ring> rings_;
};

}  // namespace falcc::monitor

#endif  // FALCC_MONITOR_WINDOW_STATS_H_
