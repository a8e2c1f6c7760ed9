// ReplicaFleet: N serving replicas following one feed.
//
// Each replica is an independent FalccEngine snapshot store (callers
// classify through its direct ClassifyBatch path) with its own
// DeltaPuller over its own feed cursor, exactly the shape of a
// multi-process deployment collapsed into one address space for tests
// and bench_replicate. Convergence is defined by content hash: the fleet has
// converged when every replica's serving snapshot hashes identically to
// the primary's — and because delta application preserves bit-identical
// decisions for untouched clusters (and installs the published
// combination for refreshed ones), hash equality implies
// decision-identical classification, which the harness can verify
// directly.

#ifndef FALCC_REPLICATE_FLEET_H_
#define FALCC_REPLICATE_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "replicate/puller.h"
#include "replicate/socket_feed.h"
#include "serve/engine.h"

namespace falcc::replicate {

struct ReplicaFleetOptions {
  size_t num_replicas = 4;
  /// Feed directory every replica follows (directory transport).
  std::string feed_dir;
  /// Socket feed endpoint (`tcp://host:port` / `unix://path`); when set
  /// it wins over feed_dir and each replica subscribes over its own
  /// connection with its own spool.
  std::string feed_endpoint;
  /// Per-replica socket feed options (spool_dir is always overridden to
  /// a per-replica temp spool; jitter_seed is offset per replica).
  SocketFeedOptions socket;
  /// Directory transport: wake pullers via inotify where available
  /// instead of pure interval polling. Off = the bench baseline.
  bool watch_directory = true;
  /// Per-replica puller options; jitter_seed is offset per replica so
  /// backoff never synchronizes across the fleet.
  DeltaPullerOptions puller;
};

class ReplicaFleet {
 public:
  explicit ReplicaFleet(ReplicaFleetOptions options);

  size_t size() const { return replicas_.size(); }
  serve::FalccEngine* engine(size_t i) { return &replicas_[i]->engine; }
  DeltaPuller* puller(size_t i) { return replicas_[i]->puller.get(); }

  /// Seeds every replica from a full snapshot file (the deployment path
  /// where replicas start from a shipped model instead of a feed
  /// checkpoint). First failure wins.
  Status Bootstrap(const std::string& snapshot_path);

  /// One PollOnce per replica, in index order.
  std::vector<PullReport> PollAll();

  /// Replicas currently serving a snapshot with content hash `hash`.
  size_t CountConverged(uint64_t hash) const;
  bool ConvergedTo(uint64_t hash) const {
    return CountConverged(hash) == size();
  }

  /// Background-thread mode for all pullers.
  void StartAll();
  void StopAll();

 private:
  struct Replica {
    serve::FalccEngine engine;
    std::unique_ptr<DeltaPuller> puller;
  };

  ReplicaFleetOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_FLEET_H_
