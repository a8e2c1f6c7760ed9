// SnapshotSource: the one reload entry point in front of a serving
// engine. Before this existed, FalccEngine::ReloadFromFile, the
// ShardedEngine install path, and the CLI's model loading each sniffed
// and loaded artifacts their own way; SnapshotSource unifies them.
//
// Dispatch is by artifact header:
//  * `falcc-snapshot-v2` / `falcc-model-v1` → LoadFull (full snapshot
//    swap; mmap-backed zero-copy load for v2 when prefer_mmap is set).
//  * `falcc-delta-v2` → ApplyDelta (incremental hot-swap: only the
//    delta's clusters are validated; the compiled kernels are shared
//    pointer-identically with the previous snapshot, nothing compiles).
//
// A failed load or delta never touches the installed snapshot — the
// engine keeps serving. Not internally synchronized beyond what the
// engine provides: concurrent Load calls race benignly (last install
// wins), same as concurrent ReloadFromFile always did.

#ifndef FALCC_SERVE_SNAPSHOT_SOURCE_H_
#define FALCC_SERVE_SNAPSHOT_SOURCE_H_

#include <string>
#include <string_view>

#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "util/status.h"

namespace falcc::serve {

struct SnapshotSourceOptions {
  /// Serve v2 snapshots' compiled kernels directly out of a read-only
  /// file mapping instead of copying them onto the heap. Decisions are
  /// bit-identical either way. v1 artifacts always take the copying
  /// path. The mapped file must not be modified in place while the
  /// snapshot serves — publish new artifacts via write-new + rename.
  bool prefer_mmap = false;
};

/// What a Load call did, for callers that log or assert on it.
enum class SnapshotLoadKind {
  kFull,   ///< full snapshot install (copying load)
  kMapped, ///< full snapshot install served from a file mapping
  kDelta,  ///< incremental install: delta applied to the base snapshot
};

/// Feeds snapshot and delta artifacts into one serving engine. Holds a
/// non-owning pointer to the engine, which must outlive the source.
class SnapshotSource {
 public:
  explicit SnapshotSource(FalccEngine* engine,
                          SnapshotSourceOptions options = {});
  explicit SnapshotSource(ShardedEngine* engine,
                          SnapshotSourceOptions options = {});

  /// Loads `path` as a full snapshot (v1 or v2) and installs it.
  Status LoadFull(const std::string& path);

  /// Reads a delta artifact from `path` and applies it to the installed
  /// snapshot.
  Status ApplyDelta(const std::string& path);

  /// Applies an in-memory delta artifact.
  Status ApplyDeltaBytes(std::string_view bytes);

  /// Sniffs the artifact header and dispatches to LoadFull or
  /// ApplyDelta. Returns what it did; unknown headers fail without
  /// touching the engine.
  Result<SnapshotLoadKind> Load(const std::string& path);

 private:
  FalccEngine* engine_ = nullptr;        ///< exactly one of these is set
  ShardedEngine* sharded_ = nullptr;
  SnapshotSourceOptions options_;
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_SNAPSHOT_SOURCE_H_
