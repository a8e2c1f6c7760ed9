#include "replicate/feed.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "io/snapshot.h"
#include "replicate/dir_watcher.h"

namespace falcc::replicate {

namespace {

constexpr char kArtifactSuffix[] = ".falcc";
constexpr char kTempSuffix[] = ".tmp";

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string_view sv(suffix);
  return s.size() >= sv.size() &&
         std::string_view(s).substr(s.size() - sv.size()) == sv;
}

/// Sniffs `path`'s kind from its header line and, for deltas, parses the
/// `base <hex>` line. Never fails: anything unexpected is kUnreadable.
void SniffArtifact(const std::string& path, FeedEntry* entry) {
  entry->kind = ArtifactKind::kUnreadable;
  entry->base_hash = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::string line;
  if (!std::getline(in, line)) return;
  const io::ArtifactHeader header = io::SniffHeader(line);
  if (header == io::ArtifactHeader::kSnapshotV2) {
    entry->kind = ArtifactKind::kFull;
    return;
  }
  if (header != io::ArtifactHeader::kDeltaV2) return;
  // Delta: the base hash is the chain link the puller orders by, so a
  // delta whose base line is broken is unreadable, not a delta.
  if (!std::getline(in, line)) return;
  std::istringstream base_line(line);
  std::string tag, hex;
  if (!(base_line >> tag >> hex) || tag != "base" || hex.size() != 16) return;
  uint64_t hash = 0;
  for (char c : hex) {
    const char lower = static_cast<char>(std::tolower(c));
    uint64_t digit = 0;
    if (lower >= '0' && lower <= '9') {
      digit = static_cast<uint64_t>(lower - '0');
    } else if (lower >= 'a' && lower <= 'f') {
      digit = static_cast<uint64_t>(lower - 'a' + 10);
    } else {
      return;
    }
    hash = (hash << 4) | digit;
  }
  entry->base_hash = hash;
  entry->kind = ArtifactKind::kDelta;
}

}  // namespace

void DeltaFeed::WaitForChange(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait_for(lock,
                    std::chrono::duration<double>(std::max(timeout_seconds, 0.0)),
                    [&] { return cancel_pending_ || change_pending_; });
  cancel_pending_ = false;
  change_pending_ = false;
}

void DeltaFeed::CancelWait() {
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    cancel_pending_ = true;
  }
  wait_cv_.notify_all();
}

void DeltaFeed::NotifyChange() {
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    change_pending_ = true;
  }
  wait_cv_.notify_all();
}

std::string SequencedName(uint64_t sequence, const std::string& stem) {
  std::string digits = std::to_string(sequence);
  if (digits.size() < 8) {
    digits.insert(0, 8 - digits.size(), '0');
  } else if (digits.size() > 8) {
    // Width extension: one 'z' per digit past 8. 'z' sorts after every
    // digit, so every wider name sorts after every narrower one and
    // lexicographic order stays numeric order.
    digits.insert(0, digits.size() - 8, 'z');
  }
  return digits + "-" + stem;
}

Result<uint64_t> ParseSequence(const std::string& filename) {
  size_t i = 0;
  while (i < filename.size() && filename[i] == 'z') ++i;
  const size_t zs = i;
  uint64_t sequence = 0;
  while (i < filename.size() && filename[i] >= '0' && filename[i] <= '9') {
    const uint64_t digit = static_cast<uint64_t>(filename[i] - '0');
    if (sequence > (UINT64_MAX - digit) / 10) {
      return Status::InvalidArgument("ParseSequence: overflow in '" +
                                     filename + "'");
    }
    sequence = sequence * 10 + digit;
    ++i;
  }
  const size_t digits = i - zs;
  if (digits == 0 || i >= filename.size() || filename[i] != '-') {
    return Status::InvalidArgument(
        "ParseSequence: no '<digits>-' prefix in '" + filename + "'");
  }
  // A 'z' run must match the width extension exactly, so every sequence
  // has one canonical name and directory order stays unambiguous.
  if (zs > 0 && digits != zs + 8) {
    return Status::InvalidArgument(
        "ParseSequence: width prefix inconsistent in '" + filename + "'");
  }
  return sequence;
}

DirectoryFeed::DirectoryFeed(std::string dir) : dir_(std::move(dir)) {}

DirectoryFeed::~DirectoryFeed() = default;

Result<std::vector<FeedEntry>> DirectoryFeed::Poll(uint64_t after_sequence) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) {
    return Status::IOError("DirectoryFeed: cannot list '" + dir_ +
                           "': " + ec.message());
  }
  std::vector<FeedEntry> entries;
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file(ec) || ec) continue;
    const std::string name = dirent.path().filename().string();
    // `.tmp` is the in-progress-write convention; anything else that
    // does not look like a feed artifact is a bystander file, not an
    // error.
    if (EndsWith(name, kTempSuffix) || !EndsWith(name, kArtifactSuffix)) {
      continue;
    }
    const Result<uint64_t> sequence = ParseSequence(name);
    if (!sequence.ok() || sequence.value() <= after_sequence) continue;
    FeedEntry entry;
    entry.sequence = sequence.value();
    entry.path = dirent.path().string();
    entry.bytes = dirent.file_size(ec);
    if (ec) entry.bytes = 0;
    SniffArtifact(entry.path, &entry);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const FeedEntry& a, const FeedEntry& b) {
              return a.sequence != b.sequence ? a.sequence < b.sequence
                                              : a.path < b.path;
            });
  return entries;
}

DirectoryWatcher* DirectoryFeed::EnsureWatcher() {
  std::lock_guard<std::mutex> lock(watcher_mu_);
  if (watcher_ == nullptr) {
    watcher_ = std::make_unique<DirectoryWatcher>(dir_);
  }
  return watcher_.get();
}

void DirectoryFeed::WaitForChange(double timeout_seconds) {
  // With a live inotify watch this returns early on rename-into-place;
  // under ENOSPC / env override / non-Linux the watcher itself degrades
  // to the same interruptible sleep the base class provides.
  EnsureWatcher()->Wait(timeout_seconds);
}

void DirectoryFeed::CancelWait() {
  // Create-on-cancel keeps the wake: a cancel that races the first wait
  // lands in the same watcher the wait will use.
  EnsureWatcher()->Cancel();
}

bool DirectoryFeed::watching() const {
  std::lock_guard<std::mutex> lock(watcher_mu_);
  return watcher_ != nullptr && watcher_->using_inotify();
}

}  // namespace falcc::replicate
