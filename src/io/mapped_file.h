// Read-only whole-file view: the one way this library reads an artifact
// (snapshot, delta or feed entry) from disk.
//
// MappedFile mmaps the file PROT_READ/MAP_PRIVATE, so a load parses the
// page cache directly instead of copying the file into a buffer first.
// On platforms or filesystems where mmap is unavailable the file is read
// into an owned buffer instead: same interface, one copy, identical
// bytes.
//
// Nothing outlives the view: FalccModel::LoadBytes and ApplyDeltaBytes
// copy or decode what they keep, so the mapping is released as soon as
// the MappedFile goes out of scope. The file must not be truncated while
// it is mapped; publishers replace artifacts by writing a new file and
// renaming it over the old path, which leaves a live mapping on the old
// inode.

#ifndef FALCC_IO_MAPPED_FILE_H_
#define FALCC_IO_MAPPED_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace falcc::io {

class MappedFile {
 public:
  /// Maps `path` read-only (or reads it into memory when mmap is not
  /// available). Fails with IOError on open/stat/map errors and on empty
  /// files (no valid artifact is empty).
  static Result<MappedFile> Open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  std::string_view view() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;

  void Reset();

  const void* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;
};

}  // namespace falcc::io

#endif  // FALCC_IO_MAPPED_FILE_H_
