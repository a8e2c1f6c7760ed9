// Fixed-width little-endian codec helpers for the binary snapshot
// sections and the replication wire header.
//
// BinaryWriter appends scalars and arrays to a string; BinaryReader is a
// forward-only, bounds-checked cursor over a byte view. Every read goes
// through memcpy, so neither side has alignment requirements in memory;
// layouts stay 8-byte aligned relative to their start by padding with
// zero bytes (Align8), and the reader insists the padding is zero so an
// accepted payload has exactly one encoding.

#ifndef FALCC_UTIL_BINARY_H_
#define FALCC_UTIL_BINARY_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace falcc::io {

static_assert(std::endian::native == std::endian::little,
              "binary sections are written in host order, which must be "
              "little-endian");

class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { Put(v); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void F64(double v) { Put(v); }
  void Bytes(std::string_view bytes) { out_->append(bytes); }

  /// Grows the output by `n` bytes and returns where they start, for
  /// callers that scatter an array's elements in place.
  char* Extend(size_t n) {
    const size_t at = out_->size();
    out_->resize(at + n);
    return out_->data() + at;
  }

  /// Zero-pads to the next multiple of 8 bytes from the start.
  void Align8() { out_->append((8 - out_->size() % 8) % 8, '\0'); }

 private:
  template <typename T>
  void Put(T v) {
    std::memcpy(Extend(sizeof(T)), &v, sizeof(T));
  }

  std::string* out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return Get(v); }
  bool U16(uint16_t* v) { return Get(v); }
  bool U32(uint32_t* v) { return Get(v); }
  bool U64(uint64_t* v) { return Get(v); }
  bool F64(double* v) { return Get(v); }

  /// Consumes `n` bytes and points `*out` at them.
  bool Take(size_t n, const char** out) {
    if (n > remaining()) return false;
    *out = data_.data() + at_;
    at_ += n;
    return true;
  }

  /// Whether `count` elements of at least `unit` encoded bytes each can
  /// still follow — the check that runs before anything is sized by a
  /// count read from the payload.
  bool Fits(uint64_t count, size_t unit) const {
    return count <= remaining() / unit;
  }

  /// Skips the zero padding up to the next multiple of 8 bytes.
  bool Align8() {
    const size_t pad = (8 - at_ % 8) % 8;
    const char* p;
    if (!Take(pad, &p)) return false;
    for (size_t i = 0; i < pad; ++i) {
      if (p[i] != '\0') return false;
    }
    return true;
  }

  size_t remaining() const { return data_.size() - at_; }
  bool AtEnd() const { return at_ == data_.size(); }

 private:
  template <typename T>
  bool Get(T* v) {
    const char* p;
    if (!Take(sizeof(T), &p)) return false;
    std::memcpy(v, p, sizeof(T));
    return true;
  }

  std::string_view data_;
  size_t at_ = 0;
};

}  // namespace falcc::io

#endif  // FALCC_UTIL_BINARY_H_
