#include "serve/engine.h"

#include <utility>

#include "util/timer.h"

namespace falcc::serve {

void FalccEngine::Install(FalccModel model) {
  // Cache the v2 manifest (and with it the content hash) while the model
  // is still mutable, so delta application against the frozen snapshot
  // is O(1) and never races on lazily computed state. Failure is benign:
  // ApplyDeltaBytes recomputes the hash on demand.
  (void)model.EnsureManifest();
  auto snapshot = std::make_shared<const FalccModel>(std::move(model));
  snapshot_.store(std::move(snapshot));
  metrics_.AddReloads(1);
}

void FalccEngine::SetObserver(std::shared_ptr<DecisionObserver> observer) {
  FALCC_CHECK(observer_ == nullptr,
              "FalccEngine::SetObserver: observer already set");
  FALCC_CHECK(observer != nullptr,
              "FalccEngine::SetObserver: null observer");
  observer_ = std::move(observer);
  observer_raw_.store(observer_.get(), std::memory_order_release);
}

void FalccEngine::RecordBatch(const ClassifyResponse& response,
                              std::span<const double> features,
                              uint64_t version, Metrics* metrics) const {
  const ClassifyStageSeconds& stages = response.stages;
  metrics->validate().Record(stages.validate);
  metrics->transform().Record(stages.transform);
  metrics->match().Record(stages.match);
  metrics->predict().Record(stages.predict);
  metrics->AddFlushes(1);
  metrics->AddSamples(response.decisions.size());
  DecisionObserver* observer =
      observer_raw_.load(std::memory_order_acquire);
  if (observer == nullptr || response.decisions.empty()) return;
  const size_t width = features.size() / response.decisions.size();
  for (size_t i = 0; i < response.decisions.size(); ++i) {
    observer->OnDecision(response.decisions[i],
                         features.subspan(i * width, width), version);
  }
  metrics->AddObserved(response.decisions.size());
}

Status FalccEngine::ReloadMapped(const std::string& path) {
  // Load + validate entirely off the serving path; a failed load leaves
  // the current snapshot serving.
  Result<FalccModel> loaded = FalccModel::LoadMapped(path);
  if (!loaded.ok()) {
    metrics_.AddErrors(1);
    return loaded.status();
  }
  Install(std::move(loaded).value());
  return Status::OK();
}

Status FalccEngine::ApplyDeltaBytes(std::string_view bytes) {
  const std::shared_ptr<const FalccModel> base = snapshot();
  if (base == nullptr) {
    metrics_.AddErrors(1);
    return Status::Unavailable(
        "FalccEngine: no model snapshot installed to apply a delta to");
  }
  // Validation happens off the serving path, against the immutable base;
  // a failed delta leaves the current snapshot serving. The result
  // shares the base's pool, kernels included, pointer-identically.
  Result<FalccModel> next = base->ApplyDeltaBytes(bytes);
  if (!next.ok()) {
    metrics_.AddErrors(1);
    return next.status();
  }
  // Idempotent redelivery (or a delta that re-selects the serving
  // combination): the result hashes identically to what is serving, so
  // skip the install — no version churn, no needless snapshot swap.
  const Result<uint64_t> base_hash = base->ContentHash();
  const Result<uint64_t> next_hash = next.value().ContentHash();
  if (base_hash.ok() && next_hash.ok() &&
      base_hash.value() == next_hash.value()) {
    return Status::OK();
  }
  Install(std::move(next).value());
  return Status::OK();
}

Result<ClassifyResponse> FalccEngine::ClassifyBatch(
    const ClassifyRequest& request) const {
  metrics_.AddRequests(1);
  const VersionedSnapshot snapshot = snapshot_.load();
  if (snapshot.model == nullptr) {
    metrics_.AddErrors(1);
    return Status::Unavailable("FalccEngine: no model snapshot installed");
  }
  Timer timer;
  Result<ClassifyResponse> response = snapshot.model->ClassifyBatch(request);
  if (!response.ok()) {
    metrics_.AddErrors(1);
    return response;
  }
  metrics_.total().Record(timer.ElapsedSeconds());
  RecordBatch(response.value(), request.features, snapshot.version,
              &metrics_);
  return response;
}

}  // namespace falcc::serve
