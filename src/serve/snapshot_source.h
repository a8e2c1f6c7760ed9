// SnapshotSource: the one reload entry point in front of a serving
// engine's snapshot store (a FalccEngine, or a ShardedEngine seen as
// one). The CLI, the DeltaPuller, and tests load artifacts through it.
//
// Dispatch is by artifact header:
//  * `falcc-snapshot-v2` / `falcc-model-v1` → LoadFull (full snapshot
//    swap; v2 is decoded straight out of a read-only file mapping).
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
#include "util/status.h"

namespace falcc::serve {

/// What a Load call did, for callers that log or assert on it.
enum class SnapshotLoadKind {
  kFull,   ///< full snapshot install
  kDelta,  ///< incremental install: delta applied to the base snapshot
};

/// Feeds snapshot and delta artifacts into one serving engine. Holds a
/// non-owning pointer to the engine, which must outlive the source.
class SnapshotSource {
 public:
  explicit SnapshotSource(FalccEngine* engine);

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
  FalccEngine* engine_ = nullptr;
};

}  // namespace falcc::serve

#endif  // FALCC_SERVE_SNAPSHOT_SOURCE_H_
