// Sectioned snapshot container (format `falcc-snapshot-v2`).
//
// A v2 artifact is a text manifest followed by a byte-addressed payload
// area holding named sections:
//
//   falcc-snapshot-v2\n
//   sections <N>\n
//   section <name> <offset> <length> <fnv64-hex>\n     (N lines)
//   end <content-hash-hex>\n
//   ##..#\n                  (pad line: payload starts 8-byte aligned)
//   <payload bytes>
//
// Offsets are relative to the payload start, every section offset is
// 8-byte aligned (inter-section gaps are '#' bytes), and each section
// carries an FNV-1a 64 checksum over exactly its payload bytes — so a
// reader can verify (or skip) sections independently and report a
// failing section by name and offset instead of "stream corrupt".
//
// The content hash on the `end` line is the artifact's identity: an
// FNV-1a fold over (name, length, checksum) of every section in manifest
// order.
//
// A delta artifact (`falcc-delta-v2`) is the same container with a
// `base <content-hash-hex>` line after the header; its sections replace
// the equally named sections of the base snapshot.
//
// SnapshotWriter buffers sections (BeginSection/EndSection) and lays the
// file out deterministically in Finish; SnapshotReader parses and
// validates the manifest without touching payload bytes, and ReadSection
// verifies one checksum on demand.

#ifndef FALCC_IO_SNAPSHOT_H_
#define FALCC_IO_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace falcc::io {

inline constexpr char kSnapshotHeaderV2[] = "falcc-snapshot-v2";
inline constexpr char kDeltaHeaderV2[] = "falcc-delta-v2";

/// FNV-1a 64-bit over `bytes`, continuing from `seed` (chain calls to
/// hash a concatenation).
uint64_t Fnv1a(std::string_view bytes,
               uint64_t seed = 14695981039346656037ull);

/// One manifest entry. `offset` is relative to the payload start.
struct SectionInfo {
  std::string name;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum = 0;
};

struct SnapshotManifest {
  std::vector<SectionInfo> sections;

  const SectionInfo* Find(std::string_view name) const;
  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  /// Artifact identity: FNV-1a fold over (name, length, checksum) of
  /// every section, in manifest order.
  uint64_t ContentHash() const;

  /// Valid section names: [a-z0-9._-]+, at most 64 chars.
  static bool ValidName(std::string_view name);
};

/// Serializes `hash` the way manifests spell checksums: 16 lowercase hex
/// digits, zero padded.
std::string HashHex(uint64_t hash);

/// What an artifact's header line says it is.
enum class ArtifactHeader { kUnknown, kSnapshotV2, kDeltaV2 };

/// An artifact's kind and, for a delta, the content hash of the
/// snapshot it applies to.
struct ArtifactSniff {
  ArtifactHeader header = ArtifactHeader::kUnknown;
  uint64_t base_hash = 0;
};

/// Classifies `bytes` by its header line: the text before the first
/// '\n', or all of `bytes` if there is none. A delta must also carry its
/// '\n'-terminated base line exactly as SnapshotReader::ParseView reads
/// it (`base`, one space, 16 lowercase hex digits); otherwise it is
/// kUnknown.
ArtifactSniff SniffArtifact(std::string_view bytes);

/// Buffered writer. Usage:
///   SnapshotWriter writer(&out);
///   auto* s = writer.BeginSection("pool");
///   ... stream the section payload into *s ...
///   writer.EndSection();
///   ... more sections ...
///   writer.Finish(&manifest);
/// Errors (nested/duplicate/invalid sections, stream failure) latch and
/// surface from EndSection/Finish.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream* out);

  /// Switches the artifact to a delta referencing `base_hash`. Must be
  /// called before Finish.
  void SetDeltaBase(uint64_t base_hash);

  /// Opens a named section and returns the stream its payload goes to
  /// (precision already prepared for lossless doubles; binary writes are
  /// fine too). Returns a poisoned sink if the writer is in error.
  std::ostream* BeginSection(std::string_view name);
  Status EndSection();

  /// Adds a whole section at once, taking over `payload` without a copy.
  Status AddSection(std::string_view name, std::string payload);

  /// Computes offsets and checksums, then emits header + manifest + the
  /// aligned payload area. When `manifest_out` is non-null the final
  /// manifest is copied there (its ContentHash() is the artifact hash).
  Status Finish(SnapshotManifest* manifest_out = nullptr);

 private:
  /// Latches an error if `name` cannot open a section now.
  void CheckNewSection(std::string_view name);

  struct Pending {
    std::string name;
    std::string payload;
  };

  std::ostream* out_;
  bool delta_ = false;
  uint64_t base_hash_ = 0;
  bool finished_ = false;
  std::vector<Pending> sections_;
  std::optional<std::ostringstream> current_;
  std::string current_name_;
  Status status_;
};

/// Parsed view over one artifact. The reader never copies payload bytes:
/// the storage it is parsed over must outlive it.
class SnapshotReader {
 public:
  /// Parses and strictly validates the manifest + layout (alignment,
  /// ordering, '#' gaps, exact total length, manifest self-hash); does
  /// NOT verify section checksums — use ReadSection / VerifyAll. Any
  /// other header line (a v1 `falcc-model-v1` file, say) is rejected
  /// with that line quoted in the error.
  static Result<SnapshotReader> ParseView(std::string_view data);

  bool is_delta() const { return is_delta_; }
  /// Content hash of the base snapshot a delta applies to (delta only).
  uint64_t base_hash() const { return base_hash_; }
  const SnapshotManifest& manifest() const { return manifest_; }

  /// The section payload after verifying its checksum. Errors name the
  /// failing section and its byte offset in the file.
  Result<std::string_view> ReadSection(std::string_view name) const;

  /// Verifies every section checksum (first failure wins).
  Status VerifyAll() const;

  /// File offset where the payload area starts (diagnostics).
  size_t payload_file_offset() const { return payload_offset_; }

 private:
  SnapshotReader() = default;

  std::string_view data_;
  size_t payload_offset_ = 0;
  bool is_delta_ = false;
  uint64_t base_hash_ = 0;
  SnapshotManifest manifest_;
};

}  // namespace falcc::io

#endif  // FALCC_IO_SNAPSHOT_H_
