#include "monitor/monitor.h"

#include <sstream>
#include <utility>

namespace falcc::monitor {

FairnessMonitor::FairnessMonitor(serve::FalccEngine* engine,
                                 MonitorOptions options,
                                 std::shared_ptr<DecisionLog> log,
                                 WindowStatsOptions window_options,
                                 std::vector<double> baselines)
    : engine_(engine),
      options_(options),
      log_(std::move(log)),
      windows_(window_options),
      detector_(options.detector, std::move(baselines)),
      refresher_(engine, RefresherOptions{options.delta_dir,
                                          options.checkpoint_every,
                                          options.feed_listen}) {}

Result<std::unique_ptr<FairnessMonitor>> FairnessMonitor::Attach(
    serve::FalccEngine* engine, MonitorOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("FairnessMonitor: null engine");
  }
  const std::shared_ptr<const FalccModel> snapshot = engine->snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        "FairnessMonitor: attach after the first Install/Reload");
  }
  if (!snapshot->has_baseline_losses()) {
    return Status::FailedPrecondition(
        "FairnessMonitor: snapshot lacks per-cluster baseline losses "
        "(legacy artifact — retrain or re-save the model)");
  }
  WindowStatsOptions window_options;
  window_options.window = options.window;
  window_options.num_clusters = snapshot->num_clusters();
  window_options.num_groups = snapshot->num_groups();
  window_options.num_features = snapshot->num_features();
  window_options.lambda = snapshot->assess_lambda();
  window_options.metric = snapshot->assess_metric();
  window_options.mode = snapshot->assess_mode();
  auto log = std::make_shared<DecisionLog>(options.log_capacity,
                                           snapshot->num_features());
  std::unique_ptr<FairnessMonitor> monitor(new FairnessMonitor(
      engine, options, log, window_options, snapshot->baseline_losses()));
  engine->SetObserver(std::move(log));
  return monitor;
}

bool FairnessMonitor::AddFeedback(uint64_t id, int truth_label) {
  return log_->AddFeedback(id, truth_label);
}

Result<MonitorPollResult> FairnessMonitor::Poll() {
  MonitorPollResult result;
  const size_t num_clusters = detector_.num_clusters();
  std::vector<size_t> fresh(num_clusters, 0);
  result.drained = log_->DrainLabeled([&](const LoggedDecision& d) {
    // Engine decisions always carry a valid (cluster, group); the
    // checks live in WindowStats::Add.
    windows_.Add(d.cluster, d.group, d.truth, d.predicted, d.features);
    ++fresh[d.cluster];
  });

  // One CUSUM step per cluster that received new evidence this poll.
  for (size_t c = 0; c < num_clusters; ++c) {
    if (fresh[c] == 0) continue;
    Result<WindowLoss> loss = windows_.Loss(c);
    if (!loss.ok()) return loss.status();
    if (detector_.Update(c, loss.value().combined, loss.value().count)) {
      result.new_alarms.push_back(c);
    }
  }

  if (options_.auto_refresh) {
    for (size_t c : detector_.AlarmedClusters()) {
      Result<RefreshOutcome> outcome =
          refresher_.RefreshCluster(windows_.Window(c), c);
      if (!outcome.ok()) return outcome.status();
      if (outcome.value().installed) {
        // Restart detection against the refreshed combination; the
        // retained window predictions came from the replaced one.
        detector_.Reset(c, outcome.value().best_loss);
        windows_.Clear(c);
      } else {
        // No strictly better candidate on this window. Unlatch and zero
        // the score so a retry requires the excess to re-accumulate
        // instead of re-attempting every poll.
        detector_.Reset(c, detector_.State(c).baseline);
      }
      result.refreshes.push_back(outcome.value());
    }
  }
  return result;
}

MonitorSummary FairnessMonitor::Summary() const {
  MonitorSummary summary;
  summary.log = log_->Stats();
  summary.refresh = refresher_.Stats();
  summary.num_clusters = detector_.num_clusters();
  summary.clusters.reserve(summary.num_clusters);
  for (size_t c = 0; c < summary.num_clusters; ++c) {
    ClusterMonitorState state;
    state.cluster = c;
    state.window_count = windows_.Count(c);
    if (state.window_count > 0) {
      Result<WindowLoss> loss = windows_.Loss(c);
      if (loss.ok()) state.windowed_loss = loss.value().combined;
    }
    const ClusterDriftState& drift = detector_.State(c);
    state.baseline = drift.baseline;
    state.score = drift.score;
    state.alarmed = drift.alarmed;
    if (state.alarmed) ++summary.num_alarmed;
    summary.clusters.push_back(state);
  }
  return summary;
}

std::string MonitorSummary::ToJson() const {
  std::ostringstream out;
  out << "{\n"
      << "  \"log\": {\"appended\": " << log.appended
      << ", \"labeled\": " << log.labeled << ", \"consumed\": " << log.consumed
      << ", \"feedback_missed\": " << log.feedback_missed
      << ", \"overwritten\": " << log.overwritten << "},\n"
      << "  \"refresh\": {\"attempts\": " << refresh.attempts
      << ", \"installed\": " << refresh.installed
      << ", \"rejected\": " << refresh.rejected << "},\n"
      << "  \"num_clusters\": " << num_clusters << ",\n"
      << "  \"num_alarmed\": " << num_alarmed << ",\n"
      << "  \"clusters\": [";
  for (size_t i = 0; i < clusters.size(); ++i) {
    const ClusterMonitorState& c = clusters[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"cluster\": " << c.cluster
        << ", \"window_count\": " << c.window_count
        << ", \"windowed_loss\": " << c.windowed_loss
        << ", \"baseline\": " << c.baseline << ", \"score\": " << c.score
        << ", \"alarmed\": " << (c.alarmed ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace falcc::monitor
