#include "monitor/window_stats.h"

#include <algorithm>
#include <cmath>

namespace falcc::monitor {

WindowStats::WindowStats(WindowStatsOptions options) : options_(options) {
  FALCC_CHECK(options_.window > 0, "WindowStats: window must be positive");
  FALCC_CHECK(options_.num_clusters > 0, "WindowStats: no clusters");
  FALCC_CHECK(options_.num_groups > 0, "WindowStats: no groups");
  FALCC_CHECK(options_.num_features > 0, "WindowStats: no features");
  rings_.resize(options_.num_clusters);
  for (Ring& ring : rings_) {
    ring.features.resize(options_.window * options_.num_features);
    ring.labels.resize(options_.window);
    ring.predictions.resize(options_.window);
    ring.groups.resize(options_.window);
    ring.counts.assign(options_.num_groups * 4, 0.0);
  }
}

void WindowStats::Add(size_t cluster, size_t group, int truth, int predicted,
                      std::span<const double> features) {
  FALCC_CHECK(cluster < rings_.size(), "WindowStats::Add: cluster range");
  FALCC_CHECK(group < options_.num_groups, "WindowStats::Add: group range");
  FALCC_CHECK(truth == 0 || truth == 1, "WindowStats::Add: binary truth");
  FALCC_CHECK(predicted == 0 || predicted == 1,
              "WindowStats::Add: binary prediction");
  FALCC_CHECK(features.size() == options_.num_features,
              "WindowStats::Add: feature width mismatch");
  Ring& ring = rings_[cluster];
  const size_t pos = ring.head;
  if (ring.size == options_.window) {
    // Evict the entry being overwritten from the counts.
    ring.counts[ConfusionIndex(ring.groups[pos], ring.labels[pos],
                               ring.predictions[pos])] -= 1.0;
  } else {
    ++ring.size;
  }
  ring.labels[pos] = truth;
  ring.predictions[pos] = predicted;
  ring.groups[pos] = group;
  std::copy(features.begin(), features.end(),
            ring.features.begin() + pos * options_.num_features);
  ring.counts[ConfusionIndex(group, truth, predicted)] += 1.0;
  ring.head = (pos + 1) % options_.window;
  ++ring.seen;
}

size_t WindowStats::Count(size_t cluster) const {
  FALCC_CHECK(cluster < rings_.size(), "WindowStats::Count: cluster range");
  return rings_[cluster].size;
}

uint64_t WindowStats::Seen(size_t cluster) const {
  FALCC_CHECK(cluster < rings_.size(), "WindowStats::Seen: cluster range");
  return rings_[cluster].seen;
}

uint64_t WindowStats::GroupCount(size_t cluster, size_t group, int truth,
                                 int predicted) const {
  FALCC_CHECK(cluster < rings_.size(),
              "WindowStats::GroupCount: cluster range");
  FALCC_CHECK(group < options_.num_groups,
              "WindowStats::GroupCount: group range");
  return static_cast<uint64_t>(
      rings_[cluster].counts[ConfusionIndex(group, truth, predicted)]);
}

Result<WindowLoss> WindowStats::Loss(size_t cluster) const {
  if (cluster >= rings_.size()) {
    return Status::InvalidArgument("WindowStats::Loss: cluster out of range");
  }
  const Ring& ring = rings_[cluster];
  if (ring.size == 0) {
    return Status::InvalidArgument("WindowStats::Loss: empty window");
  }
  Result<LossBreakdown> counted = LossFromCounts(
      ring.counts, options_.num_groups, options_.metric, options_.lambda);
  if (!counted.ok()) return counted.status();

  WindowLoss loss;
  loss.count = ring.size;
  loss.inaccuracy = counted.value().inaccuracy;
  loss.bias = counted.value().bias;
  loss.combined = counted.value().combined;
  if (options_.mode == AssessmentMode::kConsistency) {
    // 1 − consistency with the window as its own neighborhood (the
    // cluster-as-kNN approximation of §3.6), in closed form: a sample's
    // term depends only on its own prediction.
    const double n = static_cast<double>(ring.size);
    double n1 = 0.0;
    for (size_t g = 0; g < options_.num_groups; ++g) {
      n1 += ring.counts[ConfusionIndex(g, 0, 1)] +
            ring.counts[ConfusionIndex(g, 1, 1)];
    }
    const double n0 = n - n1;
    double inconsistency = 0.0;
    if (ring.size > 1) {
      const double term1 = std::fabs(1.0 - (n1 - 1.0) / (n - 1.0));
      const double term0 = n1 / (n - 1.0);
      inconsistency = (n1 * term1 + n0 * term0) / n;
    }
    loss.bias = inconsistency;
    loss.combined =
        options_.lambda * loss.inaccuracy + (1.0 - options_.lambda) * loss.bias;
  }
  return loss;
}

ClusterWindow WindowStats::Window(size_t cluster) const {
  FALCC_CHECK(cluster < rings_.size(), "WindowStats::Window: cluster range");
  const Ring& ring = rings_[cluster];
  ClusterWindow window;
  window.features.reserve(ring.size * options_.num_features);
  window.labels.reserve(ring.size);
  window.predictions.reserve(ring.size);
  window.groups.reserve(ring.size);
  // Oldest entry: `head` when full (the next overwrite target), else 0.
  const size_t start =
      ring.size == options_.window ? ring.head : 0;
  for (size_t i = 0; i < ring.size; ++i) {
    const size_t pos = (start + i) % options_.window;
    const auto row = ring.features.begin() + pos * options_.num_features;
    window.features.insert(window.features.end(), row,
                           row + options_.num_features);
    window.labels.push_back(ring.labels[pos]);
    window.predictions.push_back(ring.predictions[pos]);
    window.groups.push_back(ring.groups[pos]);
  }
  return window;
}

void WindowStats::Clear(size_t cluster) {
  FALCC_CHECK(cluster < rings_.size(), "WindowStats::Clear: cluster range");
  Ring& ring = rings_[cluster];
  ring.size = 0;
  ring.head = 0;
  ring.counts.assign(options_.num_groups * 4, 0.0);
}

}  // namespace falcc::monitor
