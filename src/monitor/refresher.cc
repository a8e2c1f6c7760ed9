#include "monitor/refresher.h"

#include <numeric>
#include <utility>
#include <vector>

#include "replicate/publisher.h"
#include "replicate/socket_feed.h"
#include "util/timer.h"

namespace falcc::monitor {

Refresher::Refresher(serve::FalccEngine* engine, RefresherOptions options)
    : engine_(engine), options_(std::move(options)) {
  FALCC_CHECK(engine_ != nullptr, "Refresher: null engine");
}

Refresher::~Refresher() = default;

Result<RefreshOutcome> Refresher::RefreshCluster(const ClusterWindow& window,
                                                 size_t cluster) {
  Timer timer;
  attempts_.fetch_add(1, std::memory_order_relaxed);

  const std::shared_ptr<const FalccModel> snapshot = engine_->snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition("Refresher: no snapshot installed");
  }
  if (cluster >= snapshot->num_clusters()) {
    return Status::InvalidArgument("Refresher: cluster out of range");
  }
  const size_t n = window.labels.size();
  if (n == 0) {
    return Status::InvalidArgument("Refresher: empty window");
  }
  const size_t width = snapshot->num_features();
  if (window.features.size() != n * width || window.groups.size() != n) {
    return Status::InvalidArgument("Refresher: window shape mismatch");
  }

  const std::vector<std::vector<int>> votes =
      snapshot->pool().PredictMatrix(window.features, width);
  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(snapshot->pool(), snapshot->num_groups());
  if (!combos.ok()) return combos.status();

  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = window.labels;
  ctx.groups = window.groups;
  ctx.num_groups = snapshot->num_groups();
  ctx.mode = snapshot->assess_mode();
  ctx.metric = snapshot->assess_metric();
  ctx.lambda = snapshot->assess_lambda();
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);

  Result<double> current = AssessCombination(
      ctx, snapshot->selected_combinations()[cluster], rows);
  if (!current.ok()) return current.status();
  Result<RegionBest> best = ReassessRegion(ctx, combos.value(), rows);
  if (!best.ok()) return best.status();

  RefreshOutcome outcome;
  outcome.cluster = cluster;
  outcome.current_loss = current.value();
  outcome.best_loss = best.value().loss;
  outcome.installed = best.value().loss < current.value();

  if (outcome.installed) {
    ClusterRefresh refresh;
    refresh.cluster = cluster;
    refresh.combination = combos.value()[best.value().index];
    refresh.baseline_loss = best.value().loss;
    Result<FalccModel> clone =
        snapshot->CloneWithRefreshes({&refresh, 1});
    if (!clone.ok()) return clone.status();
    // Delta publication targets replicas still serving the pre-refresh
    // snapshot, so the base hash is computed from it before the swap.
    uint64_t base_hash = 0;
    bool have_base = false;
    if (!options_.delta_dir.empty()) {
      const Result<uint64_t> hash = snapshot->ContentHash();
      have_base = hash.ok();
      base_hash = hash.ValueOr(0);
      if (!have_base) delta_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (have_base) {
      PublishDelta(clone.value(), cluster, base_hash, &outcome);
    }
    engine_->Install(std::move(clone).value());
    installed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

void Refresher::PublishDelta(const FalccModel& next, size_t cluster,
                             uint64_t base_hash, RefreshOutcome* outcome) {
  if (publisher_ == nullptr) {
    replicate::DeltaPublisherOptions publisher_options;
    publisher_options.dir = options_.delta_dir;
    publisher_options.checkpoint_every = options_.checkpoint_every;
    Result<replicate::DeltaPublisher> opened =
        replicate::DeltaPublisher::Open(std::move(publisher_options));
    if (!opened.ok()) {
      delta_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    publisher_ = std::make_unique<replicate::DeltaPublisher>(
        std::move(opened).value());
  }
  if (!options_.feed_listen.empty() && server_ == nullptr) {
    // An install whose listener cannot open publishes nothing (counted
    // as a failure); the next install retries the open.
    replicate::SocketPublisherOptions server_options;
    server_options.listen = options_.feed_listen;
    server_options.dir = options_.delta_dir;
    Result<std::unique_ptr<replicate::SocketPublisher>> opened =
        replicate::SocketPublisher::Open(std::move(server_options));
    if (!opened.ok()) {
      delta_failures_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    server_ = std::move(opened).value();
  }
  const size_t clusters[] = {cluster};
  Result<replicate::PublishReport> report =
      publisher_->PublishDelta(next, clusters, base_hash);
  if (!report.ok()) {
    delta_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The artifacts are durable in the directory; a failed wake only
  // delays them to the next wake or a subscriber's catch-up replay.
  if (server_ != nullptr) (void)server_->ForwardNewArtifacts();
  delta_published_.fetch_add(1, std::memory_order_relaxed);
  // The delta is always the first artifact; a cadence checkpoint (and
  // its GC) may ride along in the same report.
  outcome->delta_path = report.value().artifacts.front().path;
  outcome->delta_bytes = report.value().artifacts.front().bytes;
  for (const replicate::PublishedArtifact& artifact :
       report.value().artifacts) {
    if (artifact.kind == replicate::ArtifactKind::kFull) {
      checkpoints_published_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

RefresherStats Refresher::Stats() const {
  RefresherStats stats;
  stats.attempts = attempts_.load(std::memory_order_relaxed);
  stats.installed = installed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.delta_published = delta_published_.load(std::memory_order_relaxed);
  stats.delta_failures = delta_failures_.load(std::memory_order_relaxed);
  stats.checkpoints_published =
      checkpoints_published_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace falcc::monitor
