#include "replicate/fleet.h"

#include <utility>

namespace falcc::replicate {

ReplicaFleet::ReplicaFleet(ReplicaFleetOptions options)
    : options_(std::move(options)) {
  FALCC_CHECK(options_.num_replicas > 0, "ReplicaFleet: no replicas");
  FALCC_CHECK(!options_.feed_dir.empty() || !options_.feed_endpoint.empty(),
              "ReplicaFleet: no feed_dir or feed_endpoint");
  replicas_.reserve(options_.num_replicas);
  for (size_t i = 0; i < options_.num_replicas; ++i) {
    auto replica = std::make_unique<Replica>();
    DeltaPullerOptions puller_options = options_.puller;
    // Decorrelate backoff across the fleet.
    puller_options.jitter_seed = options_.puller.jitter_seed + i + 1;
    std::unique_ptr<DeltaFeed> feed;
    if (!options_.feed_endpoint.empty()) {
      SocketFeedOptions socket_options = options_.socket;
      socket_options.spool_dir.clear();  // per-replica temp spool
      socket_options.jitter_seed = options_.socket.jitter_seed + i + 1;
      Result<std::unique_ptr<SocketFeed>> connected =
          SocketFeed::Connect(options_.feed_endpoint, socket_options);
      FALCC_CHECK(connected.ok(),
                  ("ReplicaFleet: " + connected.status().ToString()).c_str());
      feed = std::move(connected).value();
    } else {
      feed = std::make_unique<DirectoryFeed>(options_.feed_dir,
                                             options_.watch_directory);
    }
    replica->puller = std::make_unique<DeltaPuller>(
        &replica->engine, std::move(feed), puller_options);
    replicas_.push_back(std::move(replica));
  }
}

Status ReplicaFleet::Bootstrap(const std::string& snapshot_path) {
  for (auto& replica : replicas_) {
    FALCC_RETURN_IF_ERROR(options_.puller.prefer_mmap
                              ? replica->engine.ReloadMapped(snapshot_path)
                              : replica->engine.ReloadFromFile(snapshot_path));
  }
  return Status::OK();
}

std::vector<PullReport> ReplicaFleet::PollAll() {
  std::vector<PullReport> reports;
  reports.reserve(replicas_.size());
  for (auto& replica : replicas_) {
    reports.push_back(replica->puller->PollOnce());
  }
  return reports;
}

size_t ReplicaFleet::CountConverged(uint64_t hash) const {
  size_t converged = 0;
  for (const auto& replica : replicas_) {
    const Result<uint64_t> serving = replica->puller->ServingHash();
    if (serving.ok() && serving.value() == hash) ++converged;
  }
  return converged;
}

void ReplicaFleet::StartAll() {
  for (auto& replica : replicas_) replica->puller->Start();
}

void ReplicaFleet::StopAll() {
  for (auto& replica : replicas_) replica->puller->Stop();
}

}  // namespace falcc::replicate
