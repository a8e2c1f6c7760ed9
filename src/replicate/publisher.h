// DeltaPublisher: the one writer of a feed directory.
//
// Assigns every artifact a monotonic sequence number (resumed from the
// directory on Open, so a restarted publisher continues the feed instead
// of renumbering it), writes through a `.tmp` + rename so consumers
// never see a partial artifact, and maintains the feed's retention
// contract: a full-snapshot checkpoint every `checkpoint_every` deltas,
// after each of which every artifact older than that checkpoint is
// garbage collected, except the delta right before it (a replica that
// applied it skips the checkpoint's reload). Late joiners therefore bootstrap from the newest
// checkpoint plus the deltas behind it — never by replaying the feed's
// whole history. Replicas read the directory through a DirectoryFeed,
// or over a socket from a SocketPublisher serving it (the writer then
// calls SocketPublisher::ForwardNewArtifacts after each publish).
//
// Not internally synchronized: the monitor's Poll loop (the only
// publisher in the system today) is single-threaded by contract.

#ifndef FALCC_REPLICATE_PUBLISHER_H_
#define FALCC_REPLICATE_PUBLISHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "replicate/feed.h"
#include "util/status.h"

namespace falcc::replicate {

struct DeltaPublisherOptions {
  /// Feed directory; created (recursively) by Open if missing.
  std::string dir;
  /// Publish a full-snapshot checkpoint after this many deltas.
  /// 0 disables automatic checkpoints (callers may still publish them
  /// explicitly).
  size_t checkpoint_every = 8;
};

/// One artifact written by a publish call.
struct PublishedArtifact {
  uint64_t sequence = 0;
  ArtifactKind kind = ArtifactKind::kUnreadable;
  std::string path;
  uint64_t bytes = 0;
};

/// What one publish call did: the delta and/or checkpoint written, plus
/// how many superseded artifacts GC removed.
struct PublishReport {
  std::vector<PublishedArtifact> artifacts;
  size_t gc_removed = 0;
};

struct DeltaPublisherStats {
  uint64_t deltas = 0;
  uint64_t checkpoints = 0;
  uint64_t gc_removed = 0;
  uint64_t failures = 0;
};

class DeltaPublisher {
 public:
  /// Creates the directory if needed and resumes sequencing after the
  /// highest-numbered artifact already present.
  static Result<DeltaPublisher> Open(DeltaPublisherOptions options);

  /// Serializes `next`'s delta for `clusters` against `base_hash`
  /// (FalccModel::SaveDelta) and publishes it as the next feed entry.
  /// When the checkpoint cadence is due, also publishes a checkpoint of
  /// `next` (the post-delta state) and runs GC — all reported together.
  Result<PublishReport> PublishDelta(const FalccModel& next,
                                     std::span<const size_t> clusters,
                                     uint64_t base_hash);

  /// Publishes `model` as a full-snapshot checkpoint, resets the delta
  /// cadence, and garbage-collects every artifact older than it but the
  /// delta right before it.
  Result<PublishReport> PublishCheckpoint(const FalccModel& model);

  /// The sequence the next published artifact will carry.
  uint64_t next_sequence() const { return next_sequence_; }

  DeltaPublisherStats Stats() const { return stats_; }

 private:
  explicit DeltaPublisher(DeltaPublisherOptions options);

  /// Writes `bytes` to `<dir>/<filename>` via `.tmp` + rename.
  Status WriteArtifact(const std::string& filename, const std::string& bytes,
                       std::string* final_path);

  /// Removes every artifact older than the newest checkpoint.
  size_t GarbageCollect();

  DeltaPublisherOptions options_;
  uint64_t next_sequence_ = 1;
  size_t deltas_since_checkpoint_ = 0;
  DeltaPublisherStats stats_;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_PUBLISHER_H_
