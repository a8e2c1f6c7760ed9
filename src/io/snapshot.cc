#include "io/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <utility>

namespace falcc::io {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;
constexpr size_t kMaxSections = 100000;
constexpr size_t kMaxNameLength = 64;

uint64_t FnvByte(uint64_t hash, unsigned char byte) {
  return (hash ^ byte) * kFnvPrime;
}

uint64_t FnvU64(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = FnvByte(hash, static_cast<unsigned char>(value >> (8 * i)));
  }
  return hash;
}

/// Strict unsigned decimal: no sign, no leading junk, no overflow.
bool ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 20) return false;
  uint64_t value = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Strict 16-digit lowercase hex.
bool ParseHash(std::string_view token, uint64_t* out) {
  if (token.size() != 16) return false;
  uint64_t value = 0;
  for (char c : token) {
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

/// Splits `line` on single spaces; rejects empty fields (double spaces,
/// leading/trailing space) by returning an empty vector.
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t begin = 0;
  while (true) {
    const size_t space = line.find(' ', begin);
    const std::string_view field =
        space == std::string_view::npos ? line.substr(begin)
                                        : line.substr(begin, space - begin);
    if (field.empty()) return {};
    fields.push_back(field);
    if (space == std::string_view::npos) return fields;
    begin = space + 1;
  }
}

/// `line` in single quotes for an error message: at most 64 bytes, and
/// every byte outside printable ASCII (and any quote or backslash)
/// written as \xNN.
std::string QuoteLine(std::string_view line) {
  constexpr size_t kMaxQuoted = 64;
  std::string out = "'";
  for (const char c : line.substr(0, kMaxQuoted)) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\'' && c != '\\') {
      out += c;
    } else {
      char escaped[5];
      std::snprintf(escaped, sizeof(escaped), "\\x%02x", byte);
      out += escaped;
    }
  }
  out += '\'';
  if (line.size() > kMaxQuoted) out += "...";
  return out;
}

Status ManifestError(const std::string& what) {
  return Status::InvalidArgument("snapshot manifest: " + what);
}

/// A delta's `base <hash>` line.
bool ParseBaseLine(std::string_view line, uint64_t* hash) {
  const std::vector<std::string_view> fields = SplitFields(line);
  return fields.size() == 2 && fields[0] == "base" &&
         ParseHash(fields[1], hash);
}

/// Pulls the next '\n'-terminated line off `*rest`.
Status NextLine(std::string_view* rest, std::string_view* line,
                size_t* consumed) {
  const size_t nl = rest->find('\n');
  if (nl == std::string_view::npos) {
    return ManifestError("truncated before end of header");
  }
  *line = rest->substr(0, nl);
  *rest = rest->substr(nl + 1);
  *consumed += nl + 1;
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t hash = seed;
  for (char c : bytes) hash = FnvByte(hash, static_cast<unsigned char>(c));
  return hash;
}

ArtifactSniff SniffArtifact(std::string_view bytes) {
  ArtifactSniff sniff;
  const size_t header_end = bytes.find('\n');
  const std::string_view header = bytes.substr(0, header_end);
  if (header == kSnapshotHeaderV2) {
    sniff.header = ArtifactHeader::kSnapshotV2;
  } else if (header == kDeltaHeaderV2 &&
             header_end != std::string_view::npos) {
    const std::string_view rest = bytes.substr(header_end + 1);
    const size_t base_end = rest.find('\n');
    if (base_end != std::string_view::npos &&
        ParseBaseLine(rest.substr(0, base_end), &sniff.base_hash)) {
      sniff.header = ArtifactHeader::kDeltaV2;
    }
  }
  return sniff;
}

std::string HashHex(uint64_t hash) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

const SectionInfo* SnapshotManifest::Find(std::string_view name) const {
  for (const SectionInfo& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

uint64_t SnapshotManifest::ContentHash() const {
  uint64_t hash = Fnv1a("");
  for (const SectionInfo& section : sections) {
    hash = Fnv1a(section.name, hash);
    hash = FnvByte(hash, 0);
    hash = FnvU64(hash, section.length);
    hash = FnvU64(hash, section.checksum);
  }
  return hash;
}

bool SnapshotManifest::ValidName(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

SnapshotWriter::SnapshotWriter(std::ostream* out) : out_(out) {
  FALCC_CHECK(out_ != nullptr, "SnapshotWriter: null output stream");
}

void SnapshotWriter::SetDeltaBase(uint64_t base_hash) {
  delta_ = true;
  base_hash_ = base_hash;
}

void SnapshotWriter::CheckNewSection(std::string_view name) {
  if (!status_.ok()) return;
  if (finished_) {
    status_ = Status::Internal("SnapshotWriter: section after Finish");
  } else if (current_.has_value()) {
    status_ = Status::Internal("SnapshotWriter: section inside open section '" +
                               current_name_ + "'");
  } else if (!SnapshotManifest::ValidName(name)) {
    status_ = Status::InvalidArgument(
        "SnapshotWriter: invalid section name '" + std::string(name) + "'");
  } else {
    for (const Pending& section : sections_) {
      if (section.name == name) {
        status_ = Status::InvalidArgument(
            "SnapshotWriter: duplicate section '" + std::string(name) + "'");
        break;
      }
    }
  }
}

std::ostream* SnapshotWriter::BeginSection(std::string_view name) {
  CheckNewSection(name);
  // Always hand back a usable sink so callers can stream unconditionally;
  // a poisoned writer simply discards everything at Finish.
  current_.emplace();
  current_->precision(17);
  current_name_ = std::string(name);
  return &current_.value();
}

Status SnapshotWriter::EndSection() {
  if (!current_.has_value()) {
    if (status_.ok()) {
      status_ = Status::Internal("SnapshotWriter: EndSection without Begin");
    }
    return status_;
  }
  if (status_.ok() && !current_.value()) {
    status_ = Status::IOError("SnapshotWriter: section '" + current_name_ +
                              "' stream failed");
  }
  if (status_.ok()) {
    sections_.push_back(Pending{current_name_, std::move(*current_).str()});
  }
  current_.reset();
  current_name_.clear();
  return status_;
}

Status SnapshotWriter::AddSection(std::string_view name, std::string payload) {
  CheckNewSection(name);
  if (status_.ok()) {
    sections_.push_back(Pending{std::string(name), std::move(payload)});
  }
  return status_;
}

Status SnapshotWriter::Finish(SnapshotManifest* manifest_out) {
  if (status_.ok() && current_.has_value()) {
    status_ = Status::Internal("SnapshotWriter: Finish with open section '" +
                               current_name_ + "'");
  }
  if (status_.ok() && finished_) {
    status_ = Status::Internal("SnapshotWriter: Finish called twice");
  }
  if (status_.ok() && sections_.empty()) {
    status_ = Status::InvalidArgument("SnapshotWriter: no sections");
  }
  FALCC_RETURN_IF_ERROR(status_);
  finished_ = true;

  SnapshotManifest manifest;
  uint64_t offset = 0;
  for (const Pending& section : sections_) {
    offset = (offset + 7) & ~uint64_t{7};
    manifest.sections.push_back(SectionInfo{
        section.name, offset, section.payload.size(),
        Fnv1a(section.payload)});
    offset += section.payload.size();
  }

  std::ostringstream header;
  header << (delta_ ? kDeltaHeaderV2 : kSnapshotHeaderV2) << '\n';
  if (delta_) header << "base " << HashHex(base_hash_) << '\n';
  header << "sections " << manifest.sections.size() << '\n';
  for (const SectionInfo& section : manifest.sections) {
    header << "section " << section.name << ' ' << section.offset << ' '
           << section.length << ' ' << HashHex(section.checksum) << '\n';
  }
  header << "end " << HashHex(manifest.ContentHash()) << '\n';
  // Pad line: p '#' characters plus the newline, sized so the payload
  // area begins at an 8-byte-aligned file offset (mmap alignment of the
  // binary sections follows from page-aligned mapping bases).
  const size_t header_len = header.str().size();
  const size_t pad = (8 - (header_len + 1) % 8) % 8;
  header << std::string(pad, '#') << '\n';

  *out_ << header.str();
  uint64_t written = 0;
  for (const Pending& section : sections_) {
    const uint64_t aligned = (written + 7) & ~uint64_t{7};
    if (aligned > written) {
      *out_ << std::string(static_cast<size_t>(aligned - written), '#');
      written = aligned;
    }
    out_->write(section.payload.data(),
                static_cast<std::streamsize>(section.payload.size()));
    written += section.payload.size();
  }
  if (!*out_) return Status::IOError("SnapshotWriter: output stream failed");
  if (manifest_out != nullptr) *manifest_out = std::move(manifest);
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::ParseView(std::string_view data) {
  SnapshotReader reader;
  reader.data_ = data;

  std::string_view rest = reader.data_;
  size_t consumed = 0;
  std::string_view line;

  FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
  if (line == kSnapshotHeaderV2) {
    reader.is_delta_ = false;
  } else if (line == kDeltaHeaderV2) {
    reader.is_delta_ = true;
  } else {
    return ManifestError("unknown header line " + QuoteLine(line));
  }

  if (reader.is_delta_) {
    FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
    if (!ParseBaseLine(line, &reader.base_hash_)) {
      return ManifestError("malformed base line");
    }
  }

  FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
  uint64_t num_sections = 0;
  {
    const std::vector<std::string_view> fields = SplitFields(line);
    if (fields.size() != 2 || fields[0] != "sections" ||
        !ParseU64(fields[1], &num_sections)) {
      return ManifestError("malformed sections line");
    }
  }
  if (num_sections == 0 || num_sections > kMaxSections) {
    return ManifestError("implausible section count");
  }

  uint64_t previous_end = 0;
  for (uint64_t i = 0; i < num_sections; ++i) {
    FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
    const std::vector<std::string_view> fields = SplitFields(line);
    SectionInfo section;
    if (fields.size() != 5 || fields[0] != "section" ||
        !ParseU64(fields[2], &section.offset) ||
        !ParseU64(fields[3], &section.length) ||
        !ParseHash(fields[4], &section.checksum)) {
      return ManifestError("malformed section line " + std::to_string(i));
    }
    section.name = std::string(fields[1]);
    if (!SnapshotManifest::ValidName(section.name)) {
      return ManifestError("invalid section name '" + section.name + "'");
    }
    if (reader.manifest_.Has(section.name)) {
      return ManifestError("duplicate section '" + section.name + "'");
    }
    if (section.offset % 8 != 0) {
      return ManifestError("section '" + section.name + "' misaligned");
    }
    if (section.offset < previous_end ||
        section.offset - previous_end > 7) {
      return ManifestError("section '" + section.name +
                           "' offset out of order");
    }
    if (section.length > reader.data_.size() ||
        section.offset > reader.data_.size() - section.length) {
      return ManifestError("section '" + section.name +
                           "' exceeds the artifact");
    }
    previous_end = section.offset + section.length;
    reader.manifest_.sections.push_back(std::move(section));
  }

  FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
  uint64_t declared_hash = 0;
  {
    const std::vector<std::string_view> fields = SplitFields(line);
    if (fields.size() != 2 || fields[0] != "end" ||
        !ParseHash(fields[1], &declared_hash)) {
      return ManifestError("malformed end line");
    }
  }
  if (declared_hash != reader.manifest_.ContentHash()) {
    return ManifestError("content hash does not match the section list");
  }

  // Pad line: '#' only, and it must actually leave the payload aligned.
  FALCC_RETURN_IF_ERROR(NextLine(&rest, &line, &consumed));
  if (line.size() > 7 ||
      line.find_first_not_of('#') != std::string_view::npos) {
    return ManifestError("malformed pad line");
  }
  if (consumed % 8 != 0) {
    return ManifestError("payload area is misaligned");
  }
  reader.payload_offset_ = consumed;

  if (rest.size() != previous_end) {
    return ManifestError("payload length mismatch (expected " +
                         std::to_string(previous_end) + " bytes, have " +
                         std::to_string(rest.size()) + ")");
  }
  // Inter-section gaps are writer padding and must look like it; anything
  // else is either corruption or data smuggled past the checksums.
  uint64_t cursor = 0;
  for (const SectionInfo& section : reader.manifest_.sections) {
    for (uint64_t b = cursor; b < section.offset; ++b) {
      if (rest[static_cast<size_t>(b)] != '#') {
        return ManifestError("non-padding byte between sections");
      }
    }
    cursor = section.offset + section.length;
  }
  return reader;
}

Result<std::string_view> SnapshotReader::ReadSection(
    std::string_view name) const {
  const SectionInfo* section = manifest_.Find(name);
  if (section == nullptr) {
    return Status::InvalidArgument("snapshot section '" + std::string(name) +
                                   "' not present");
  }
  const std::string_view payload = data_.substr(
      payload_offset_ + static_cast<size_t>(section->offset),
      static_cast<size_t>(section->length));
  const uint64_t actual = Fnv1a(payload);
  if (actual != section->checksum) {
    return Status::InvalidArgument(
        "snapshot section '" + section->name + "' checksum mismatch at file "
        "offset " + std::to_string(payload_offset_ + section->offset) +
        " (length " + std::to_string(section->length) + "): expected " +
        HashHex(section->checksum) + ", found " + HashHex(actual));
  }
  return payload;
}

Status SnapshotReader::VerifyAll() const {
  for (const SectionInfo& section : manifest_.sections) {
    FALCC_RETURN_IF_ERROR(ReadSection(section.name).status());
  }
  return Status::OK();
}

}  // namespace falcc::io
