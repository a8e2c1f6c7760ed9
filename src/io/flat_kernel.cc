#include "io/flat_kernel.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace falcc::io {

namespace {

// "falcc-f<version>" as the little-endian byte sequence of one u64. A
// reader on a byte order other than the writer's sees a scrambled magic
// and rejects before touching any other field.
constexpr uint64_t FlatMagic(char version) {
  return uint64_t{'f'} | (uint64_t{'a'} << 8) | (uint64_t{'l'} << 16) |
         (uint64_t{'c'} << 24) | (uint64_t{'c'} << 32) |
         (uint64_t{'-'} << 40) | (uint64_t{'f'} << 48) |
         (uint64_t(version) << 56);
}
constexpr uint64_t kFlatMagic = FlatMagic('3');
// Per-cluster stitched kernels, superseded by the per-model layout.
constexpr uint64_t kLegacyFlatMagic = FlatMagic('2');

constexpr uint32_t kNotLowered = 0xffffffffu;
constexpr uint64_t kMaxClusters = 10000000;
constexpr uint64_t kMaxWidth = 1000000;
constexpr uint64_t kMaxNodes = 1u << 30;
constexpr uint64_t kMaxTrees = 1u << 30;

void PutU32(std::string* buffer, uint32_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  buffer->append(bytes, sizeof(v));
}

void PutU64(std::string* buffer, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  buffer->append(bytes, sizeof(v));
}

template <typename T>
void PutArray(std::string* buffer, std::span<const T> values) {
  if (!values.empty()) {
    buffer->append(reinterpret_cast<const char*>(values.data()),
                   values.size() * sizeof(T));
  }
}

Status FlatError(std::string what) {
  return Status::InvalidArgument("flat section: " + std::move(what));
}

// Forward-only reader over the section payload. All multi-byte reads go
// through memcpy, so the cursor itself has no alignment requirements.
class Cursor {
 public:
  explicit Cursor(std::string_view data)
      : next_(data.data()), end_(data.data() + data.size()) {}

  bool Bytes(size_t n, const char** out) {
    if (n > static_cast<size_t>(end_ - next_)) return false;
    *out = next_;
    next_ += n;
    return true;
  }

  bool U32(uint32_t* v) { return Scalar(v); }
  bool U64(uint64_t* v) { return Scalar(v); }

  bool AtEnd() const { return next_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - next_); }

 private:
  template <typename T>
  bool Scalar(T* v) {
    const char* p;
    if (!Bytes(sizeof(T), &p)) return false;
    std::memcpy(v, p, sizeof(T));
    return true;
  }

  const char* next_;
  const char* end_;
};

// Reads `count` elements as a view into the payload (zero copy) or, when
// `storage` is non-null, as a copy into it. The caller guarantees the
// payload base is 8-byte aligned whenever `storage` is null; the layout
// keeps every array start at an 8-byte multiple from the base.
template <typename T>
bool TakeArray(Cursor* cursor, size_t count, std::span<const T>* view,
               std::vector<T>* storage) {
  if (count > cursor->remaining() / sizeof(T)) return false;
  const char* p;
  if (!cursor->Bytes(count * sizeof(T), &p)) return false;
  if (storage != nullptr) {
    storage->resize(count);
    if (count > 0) std::memcpy(storage->data(), p, count * sizeof(T));
    *view = *storage;
  } else {
    *view = std::span<const T>(reinterpret_cast<const T*>(p), count);
  }
  return true;
}

}  // namespace

Status EncodeFlatSection(std::ostream* out,
                         std::span<const std::vector<double>> centroids,
                         const CompiledPool& kernels) {
  const size_t k = centroids.size();
  if (k == 0 || k > kMaxClusters) {
    return Status::Internal("EncodeFlatSection: bad cluster count");
  }
  const size_t width = centroids[0].size();
  if (width == 0 || width > kMaxWidth) {
    return Status::Internal("EncodeFlatSection: bad centroid width");
  }
  for (const std::vector<double>& centroid : centroids) {
    if (centroid.size() != width) {
      return Status::Internal("EncodeFlatSection: ragged centroids");
    }
  }
  if (kernels.empty()) {
    return Status::Internal("EncodeFlatSection: empty kernel pool");
  }

  std::string buffer;
  PutU64(&buffer, kFlatMagic);
  PutU64(&buffer, k);
  PutU64(&buffer, width);
  PutU64(&buffer, kernels.size());
  for (const std::vector<double>& centroid : centroids) {
    PutArray(&buffer, std::span<const double>(centroid));
  }
  for (const std::optional<CompiledEnsemble>& kernel : kernels) {
    if (!kernel.has_value()) {
      PutU32(&buffer, kNotLowered);
      PutU32(&buffer, 0);
      PutU64(&buffer, 0);
      PutU64(&buffer, 0);
      continue;
    }
    const CompiledEnsemble::Parts& parts = kernel->parts();
    PutU32(&buffer, static_cast<uint32_t>(parts.kind));
    PutU32(&buffer, 0);
    PutU64(&buffer, parts.trees.size());
    PutU64(&buffer, parts.nodes.size());
    PutArray(&buffer, parts.trees);
    PutArray(&buffer, parts.alphas);
    PutArray(&buffer, parts.nodes);
    PutArray(&buffer, parts.leaf_proba);
  }
  out->write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out->good()) {
    return Status::IOError("EncodeFlatSection: write failed");
  }
  return Status::OK();
}

bool IsLegacyFlatSection(std::string_view payload) {
  uint64_t magic = 0;
  return Cursor(payload).U64(&magic) && magic == kLegacyFlatMagic;
}

Result<DecodedFlat> DecodeFlatSection(std::string_view payload,
                                      size_t num_features, size_t pool_size,
                                      std::shared_ptr<const void> backing) {
  Cursor cursor(payload);
  uint64_t magic = 0;
  if (!cursor.U64(&magic)) return FlatError("truncated header");
  if (magic != kFlatMagic) {
    return FlatError("bad magic (not a flat section, or wrong byte order)");
  }
  uint64_t k = 0, width = 0, num_models = 0;
  if (!cursor.U64(&k) || !cursor.U64(&width) || !cursor.U64(&num_models)) {
    return FlatError("truncated header");
  }
  if (k == 0 || k > kMaxClusters) return FlatError("cluster count out of range");
  if (width == 0 || width > kMaxWidth) {
    return FlatError("centroid width out of range");
  }
  if (num_models != pool_size) {
    return FlatError("model count does not match the snapshot's pool");
  }

  DecodedFlat decoded;
  decoded.centroid_width = static_cast<size_t>(width);
  // Centroids are always copied out (they are small and only compared
  // against the text section), so alignment never matters for them.
  std::span<const double> centroid_view;
  if (static_cast<size_t>(width) > cursor.remaining() / sizeof(double) / k ||
      !TakeArray(&cursor, static_cast<size_t>(k * width), &centroid_view,
                 &decoded.centroids)) {
    return FlatError("truncated centroids");
  }

  // Zero copy requires the payload base to sit on an 8-byte boundary
  // (every array offset is a multiple of 8 by layout). Mapped files
  // always qualify; an unaligned in-memory buffer decodes via copies,
  // one owned table per model.
  const bool copy = reinterpret_cast<uintptr_t>(payload.data()) % 8 != 0;
  decoded.kernels.resize(pool_size);
  for (size_t m = 0; m < pool_size; ++m) {
    uint32_t kind = 0, pad = 0;
    uint64_t num_trees = 0, num_nodes = 0;
    if (!cursor.U32(&kind) || !cursor.U32(&pad) || !cursor.U64(&num_trees) ||
        !cursor.U64(&num_nodes)) {
      return FlatError("truncated kernel header");
    }
    if (pad != 0) return FlatError("nonzero kernel header padding");
    if (kind == kNotLowered) {
      if (num_trees != 0 || num_nodes != 0) {
        return FlatError("interpreted model with kernel arrays");
      }
      continue;
    }
    if (kind > 2) return FlatError("unknown ensemble kind");
    if (num_trees > kMaxTrees) return FlatError("tree count out of range");
    if (num_nodes > kMaxNodes) return FlatError("node count out of range");
    auto owned = copy ? std::make_shared<FlatTable>() : nullptr;
    CompiledEnsemble::Parts parts;
    parts.kind = static_cast<EnsembleKind>(kind);
    if (!TakeArray(&cursor, static_cast<size_t>(num_trees), &parts.trees,
                   owned ? &owned->trees : nullptr) ||
        !TakeArray(&cursor, static_cast<size_t>(num_trees), &parts.alphas,
                   owned ? &owned->alphas : nullptr) ||
        !TakeArray(&cursor, static_cast<size_t>(num_nodes), &parts.nodes,
                   owned ? &owned->nodes : nullptr) ||
        !TakeArray(&cursor, static_cast<size_t>(num_nodes), &parts.leaf_proba,
                   owned ? &owned->leaf_proba : nullptr)) {
      return FlatError("truncated kernel " + std::to_string(m) + " arrays");
    }
    Result<CompiledEnsemble> kernel = CompiledEnsemble::View(
        parts, num_features,
        owned ? std::shared_ptr<const void>(std::move(owned)) : backing);
    if (!kernel.ok()) {
      return FlatError("kernel " + std::to_string(m) + ": " +
                       kernel.status().message());
    }
    decoded.kernels[m] = std::move(kernel).value();
  }
  if (!cursor.AtEnd()) return FlatError("trailing bytes after last kernel");
  return decoded;
}

}  // namespace falcc::io
