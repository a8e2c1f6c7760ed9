#include "serve/snapshot_source.h"

#include <fstream>
#include <utility>

#include "io/snapshot.h"
#include "util/status.h"

namespace falcc::serve {

namespace {

/// Reads the whole artifact at `path`. Delta artifacts are one cluster's
/// section plus a manifest — small by construction — so slurping is the
/// right tool; full snapshots never come through here (LoadFull streams
/// or maps them).
Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("SnapshotSource: cannot open '" + path + "'");
  }
  std::string bytes;
  char chunk[65536];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::IOError("SnapshotSource: read error on '" + path + "'");
  }
  return bytes;
}

/// First line of the artifact (without the newline), for header
/// dispatch. Reads at most one buffer's worth — headers are short.
Result<std::string> ReadHeaderLine(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("SnapshotSource: cannot open '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("SnapshotSource: empty artifact '" + path + "'");
  }
  return line;
}

}  // namespace

SnapshotSource::SnapshotSource(FalccEngine* engine) : engine_(engine) {
  FALCC_CHECK(engine_ != nullptr, "SnapshotSource: null engine");
}

Status SnapshotSource::LoadFull(const std::string& path) {
  return engine_->ReloadMapped(path);
}

Status SnapshotSource::ApplyDelta(const std::string& path) {
  Result<std::string> bytes = ReadFileBytes(path);
  FALCC_RETURN_IF_ERROR(bytes.status());
  return ApplyDeltaBytes(bytes.value());
}

Status SnapshotSource::ApplyDeltaBytes(std::string_view bytes) {
  return engine_->ApplyDeltaBytes(bytes);
}

Result<SnapshotLoadKind> SnapshotSource::Load(const std::string& path) {
  Result<std::string> header = ReadHeaderLine(path);
  FALCC_RETURN_IF_ERROR(header.status());
  if (header.value() == io::kDeltaHeaderV2) {
    FALCC_RETURN_IF_ERROR(ApplyDelta(path));
    return SnapshotLoadKind::kDelta;
  }
  // Full snapshots — v2 sectioned or the legacy v1 text format — go
  // through the regular loader, which does its own header validation
  // and rejects anything unrecognized.
  FALCC_RETURN_IF_ERROR(LoadFull(path));
  return SnapshotLoadKind::kFull;
}

}  // namespace falcc::serve
