// Read-only memory-mapped file with a heap fallback.
//
// The zero-copy load path serves compiled kernel tables directly out of
// the page cache: MappedFile mmaps the artifact PROT_READ/MAP_PRIVATE
// and the decoded sections alias the mapping (kept alive by shared_ptr
// ownership threaded through CompiledEnsemble::View). On platforms or
// filesystems where mmap is unavailable the file is read into an owned
// buffer instead — same interface, one copy, identical bytes.
//
// Aliasing rule: the artifact must not be modified or truncated while a
// model loaded from it is alive. Replacing a snapshot in place is done
// by writing a new file and renaming over the old path — the mapping
// keeps the old inode's pages alive until the model drops it.

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
  /// False when the heap fallback was used.
  bool is_mapped() const { return mapped_; }

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
