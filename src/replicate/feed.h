// DeltaFeed: the ordered artifact feed a serving replica consumes.
//
// A feed is a sequence of snapshot artifacts — ~150-byte deltas
// (`falcc-delta-v2`) punctuated by full-snapshot checkpoints — in the
// order a replica must apply them. The reference implementation is
// DirectoryFeed, a watcher over the directory the monitor's Refresher
// publishes into (DESIGN.md §16): artifacts are named
// `<zero-padded sequence>-<kind>-<detail>.falcc`, so lexicographic
// directory order IS apply order, and a feed needs no index file or
// broker — `scp`, NFS, or an object-store sync loop is the transport.
// DeltaPublisher (replicate/publisher.h) is the one writer of such a
// directory. The push transport (replicate/socket_feed.h) reads it
// too: a SocketPublisher serves the directory over TCP or a unix
// socket, streaming each subscriber the artifacts after its cursor,
// and a SocketFeed spools them locally, so Poll semantics are
// identical on either side of the wire.
//
// Partial-write tolerance is by convention, not by locking: publishers
// write to a `.tmp`-suffixed name in the same directory and rename into
// place (DeltaPublisher does this), so a conforming feed never exposes a
// half-written artifact. Anything that still fails to sniff — truncated
// copies, corrupted bytes, an unreadable file — is reported as
// kUnreadable rather than hidden, and the puller decides (quarantine +
// full-reload fallback, never stopping the engine).

#ifndef FALCC_REPLICATE_FEED_H_
#define FALCC_REPLICATE_FEED_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace falcc::replicate {

class DirectoryWatcher;

/// What an artifact in the feed is, sniffed from its header line.
enum class ArtifactKind {
  kDelta,       ///< `falcc-delta-v2`: applies to a base content hash
  kFull,        ///< `falcc-snapshot-v2`: a full snapshot
  kUnreadable,  ///< unopenable, empty, or unrecognized header
};

/// One feed entry: an artifact and where it sits in the apply order.
struct FeedEntry {
  uint64_t sequence = 0;   ///< position in the feed; apply order
  ArtifactKind kind = ArtifactKind::kUnreadable;
  std::string path;        ///< full path to the artifact
  uint64_t base_hash = 0;  ///< delta only: content hash it applies to
  uint64_t bytes = 0;      ///< artifact size on disk
};

/// An ordered artifact feed. Poll is stateless with respect to the feed
/// object: the caller owns its cursor and passes it back, so one feed
/// can serve many consumers and a recovery scan is just Poll(0).
///
/// WaitForChange is the poll pacing: the base implementation is a plain
/// interruptible sleep (polling cadence), and push-capable feeds
/// (inotify directories, sockets) wake it early when new entries may be
/// visible, cutting propagation lag below the poll interval.
class DeltaFeed {
 public:
  virtual ~DeltaFeed() = default;

  /// Every entry with sequence > `after_sequence`, ascending. Entries
  /// that fail to sniff come back as kUnreadable instead of being
  /// dropped, so a consumer can tell "nothing new" from "something new
  /// but broken". Errors are feed-level only (e.g. the directory
  /// disappeared) — per-artifact problems never fail the poll.
  virtual Result<std::vector<FeedEntry>> Poll(uint64_t after_sequence) = 0;

  /// Blocks until the feed may have new entries, `timeout_seconds`
  /// elapses, or CancelWait wakes it. Spurious wakes are fine — the
  /// caller re-polls either way.
  virtual void WaitForChange(double timeout_seconds);

  /// Wakes the in-progress WaitForChange (or the next one); each cancel
  /// is consumed by exactly one wait, so a feed stays usable after a
  /// consumer restarts.
  virtual void CancelWait();

 protected:
  /// Implementations call this when new entries may be visible; wakes
  /// WaitForChange.
  void NotifyChange();

 private:
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool cancel_pending_ = false;
  bool change_pending_ = false;
};

/// Canonical artifact filename: `<zero-padded sequence>-<stem>`.
/// Sequences up to 8 digits are zero-padded to 8 so directory order
/// equals apply order past sequence 9 (plain `v10` sorts before `v9`
/// lexicographically). Longer sequences gain one `z` prefix per extra
/// digit: `z` sorts after every digit, and a longer `z` run sorts after
/// a shorter one, so lexicographic order stays equal to numeric order
/// across the width boundary (`99999999-…` < `z100000000-…` <
/// `zz10000000000-…`) and a long-lived feed never reorders.
std::string SequencedName(uint64_t sequence, const std::string& stem);

/// Parses the leading `[z-run]<digits>-` sequence prefix of an artifact
/// filename. Fails on names that do not follow the convention,
/// including a `z` run inconsistent with the digit count.
Result<uint64_t> ParseSequence(const std::string& filename);

/// Directory watcher over a publisher directory. Poll scans on demand;
/// WaitForChange uses inotify (DirectoryWatcher) where available so a
/// rename-into-place wakes the consumer immediately, and degrades to
/// the base class's timed sleep elsewhere. Not internally synchronized
/// beyond the wait plumbing; each consumer owns one (they are cheap —
/// the watcher is created lazily on first wait).
class DirectoryFeed final : public DeltaFeed {
 public:
  explicit DirectoryFeed(std::string dir);
  ~DirectoryFeed() override;

  /// Scans the directory, skipping `.tmp` in-progress writes and any
  /// name without the `<sequence>-*.falcc` shape, and sniffs each new
  /// artifact's kind (and, for deltas, its base hash) from the first
  /// lines. IOError only when the directory itself cannot be listed.
  Result<std::vector<FeedEntry>> Poll(uint64_t after_sequence) override;

  void WaitForChange(double timeout_seconds) override;
  void CancelWait() override;

  const std::string& dir() const { return dir_; }

  /// True once a wait has run with a live inotify watch.
  bool watching() const;

 private:
  DirectoryWatcher* EnsureWatcher();

  std::string dir_;
  mutable std::mutex watcher_mu_;
  std::unique_ptr<DirectoryWatcher> watcher_;
};

}  // namespace falcc::replicate

#endif  // FALCC_REPLICATE_FEED_H_
