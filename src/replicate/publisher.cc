#include "replicate/publisher.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "io/snapshot.h"

namespace falcc::replicate {

namespace {

/// Stem of a delta artifact: `delta-c<cluster>[-c<cluster>...]-<base>`.
/// The base hash makes the name self-describing for operators; consumers
/// order by the sequence prefix and chain by the header's base line.
std::string DeltaStem(std::span<const size_t> clusters, uint64_t base_hash) {
  std::string stem = "delta";
  for (size_t c : clusters) stem += "-c" + std::to_string(c);
  return stem + "-" + io::HashHex(base_hash) + ".falcc";
}

}  // namespace

DeltaPublisher::DeltaPublisher(DeltaPublisherOptions options)
    : options_(std::move(options)) {}

Result<DeltaPublisher> DeltaPublisher::Open(DeltaPublisherOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("DeltaPublisher: empty directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("DeltaPublisher: cannot create '" + options.dir +
                           "': " + ec.message());
  }
  DeltaPublisher publisher(std::move(options));
  // Resume the feed: sequence after the highest existing artifact, and
  // the checkpoint cadence counted from the newest checkpoint so a
  // restart neither renumbers the feed nor doubles the gap between
  // checkpoints.
  DirectoryFeed feed(publisher.options_.dir);
  Result<std::vector<FeedEntry>> entries = feed.Poll(0);
  if (!entries.ok()) return entries.status();
  size_t deltas_after_checkpoint = 0;
  for (const FeedEntry& entry : entries.value()) {
    publisher.next_sequence_ =
        std::max(publisher.next_sequence_, entry.sequence + 1);
    if (entry.kind == ArtifactKind::kFull) {
      deltas_after_checkpoint = 0;
    } else {
      ++deltas_after_checkpoint;
    }
  }
  publisher.deltas_since_checkpoint_ = deltas_after_checkpoint;
  return publisher;
}

Result<PublishReport> DeltaPublisher::PublishDelta(
    const FalccModel& next, std::span<const size_t> clusters,
    uint64_t base_hash) {
  std::ostringstream bytes;
  const Status saved = next.SaveDelta(&bytes, clusters, base_hash);
  if (!saved.ok()) {
    ++stats_.failures;
    return saved;
  }
  PublishedArtifact artifact;
  artifact.sequence = next_sequence_;
  artifact.kind = ArtifactKind::kDelta;
  artifact.bytes = bytes.str().size();
  const Status written =
      WriteArtifact(SequencedName(next_sequence_, DeltaStem(clusters, base_hash)),
                    bytes.str(), &artifact.path);
  if (!written.ok()) {
    ++stats_.failures;
    return written;
  }
  ++next_sequence_;
  ++stats_.deltas;
  ++deltas_since_checkpoint_;
  PublishReport report;
  report.artifacts.push_back(std::move(artifact));
  if (options_.checkpoint_every > 0 &&
      deltas_since_checkpoint_ >= options_.checkpoint_every) {
    // Cadence due: checkpoint the post-delta state so the checkpoint
    // subsumes this delta (and everything before it). A checkpoint
    // failure is non-fatal — the delta is already out; the cadence
    // simply stays due for the next publish.
    Result<PublishReport> checkpoint = PublishCheckpoint(next);
    if (checkpoint.ok()) {
      for (PublishedArtifact& a : checkpoint.value().artifacts) {
        report.artifacts.push_back(std::move(a));
      }
      report.gc_removed += checkpoint.value().gc_removed;
    }
  }
  return report;
}

Result<PublishReport> DeltaPublisher::PublishCheckpoint(
    const FalccModel& model) {
  std::ostringstream bytes;
  const Status saved = model.Save(&bytes);
  if (!saved.ok()) {
    ++stats_.failures;
    return saved;
  }
  const uint64_t hash = model.ContentHash().ValueOr(0);
  PublishedArtifact artifact;
  artifact.sequence = next_sequence_;
  artifact.kind = ArtifactKind::kFull;
  artifact.bytes = bytes.str().size();
  const std::string stem = "checkpoint-" + io::HashHex(hash) + ".falcc";
  const Status written = WriteArtifact(SequencedName(next_sequence_, stem),
                                       bytes.str(), &artifact.path);
  if (!written.ok()) {
    ++stats_.failures;
    return written;
  }
  ++next_sequence_;
  ++stats_.checkpoints;
  deltas_since_checkpoint_ = 0;
  PublishReport report;
  report.artifacts.push_back(std::move(artifact));
  report.gc_removed = GarbageCollect();
  stats_.gc_removed += report.gc_removed;
  return report;
}

Status DeltaPublisher::WriteArtifact(const std::string& filename,
                                     const std::string& bytes,
                                     std::string* final_path) {
  const std::string path = options_.dir + "/" + filename;
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("DeltaPublisher: cannot open '" + temp + "'");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      return Status::IOError("DeltaPublisher: write to '" + temp + "' failed");
    }
  }
  // The rename is the publication point: consumers either see the whole
  // artifact or none of it.
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ec);
    return Status::IOError("DeltaPublisher: rename to '" + path +
                           "' failed: " + ec.message());
  }
  *final_path = path;
  return Status::OK();
}

size_t DeltaPublisher::GarbageCollect() {
  DirectoryFeed feed(options_.dir);
  Result<std::vector<FeedEntry>> entries = feed.Poll(0);
  if (!entries.ok()) return 0;
  // The newest checkpoint's sequence is the GC horizon: a late joiner
  // bootstraps from it, so everything strictly older is unreachable —
  // except the delta right before it. A cadence checkpoint lands in the
  // same call as that delta, and a replica that applies the delta
  // consumes the checkpoint (same content hash) without a reload;
  // removing the delta at once would make it jump the gap with one.
  // Unreadable artifacts never count as checkpoints — retention must
  // not anchor on a corrupt file.
  uint64_t horizon = 0;
  for (const FeedEntry& entry : entries.value()) {
    if (entry.kind == ArtifactKind::kFull) horizon = entry.sequence;
  }
  size_t removed = 0;
  for (const FeedEntry& entry : entries.value()) {
    if (entry.sequence >= horizon) continue;
    if (entry.sequence + 1 == horizon && entry.kind == ArtifactKind::kDelta) {
      continue;
    }
    std::error_code ec;
    if (std::filesystem::remove(entry.path, ec) && !ec) ++removed;
  }
  return removed;
}

}  // namespace falcc::replicate
