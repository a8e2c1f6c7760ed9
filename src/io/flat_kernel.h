// Binary codec for the `flat` snapshot section: the centroids and every
// pool model's compiled kernel in a layout that can be served directly
// out of a read-only mapping, with no deserialize copy.
//
// Wire layout (all integers little-endian, every array 8-byte aligned
// relative to the section start):
//
//   u64 magic            "falcc-f3" (doubles as an endianness sentinel)
//   u64 k                number of clusters
//   u64 centroid_width   features per centroid
//   u64 num_models       pool size; kernel m serves pool model m
//   f64 centroids[k * centroid_width]   row-major
//   per pool model m in [0, num_models):
//     u32 kind           0 tree, 1 AdaBoost, 2 forest, 0xffffffff = not
//                        lowered (served by the interpreted model)
//     u32 zero
//     u64 num_trees      0 when not lowered
//     u64 num_nodes      0 when not lowered
//     u32 pair (root, steps) x num_trees
//     f64 alphas[num_trees]
//     16-byte node x num_nodes: f64 threshold, i32 feature, u32 left
//                               (right child = left + 1; a leaf has
//                               left = itself and threshold = +inf)
//     f64 leaf_proba[num_nodes]
//
// The section depends only on the pool and the centroids — which pool
// model each cluster picks lives in the combo sections — so a refresh
// leaves it valid, and it is a pure function of the model: the byte
// fixed-point tests depend on that.
//
// Decode aliases the payload when it is 8-byte aligned in memory (the
// mmap path — the manifest guarantees alignment relative to the file,
// and mappings are page aligned) and falls back to copying into owned
// arrays otherwise, with identical decisions either way. Sections are
// only 8-byte aligned in the file, so an aliased node table may start at
// 8 mod 16, where one node in four straddles two cache lines. Every decoded
// kernel passes CompiledEnsemble::View validation before use. Sections
// written before per-model kernels existed carry the magic "falcc-f2";
// IsLegacyFlatSection tells the loader to skip those and compile from
// the pool instead.

#ifndef FALCC_IO_FLAT_KERNEL_H_
#define FALCC_IO_FLAT_KERNEL_H_

#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "ml/compiled_ensemble.h"
#include "util/status.h"

namespace falcc::io {

/// Serializes the centroids and one kernel per pool model (empty
/// entries are written as not lowered).
Status EncodeFlatSection(std::ostream* out,
                         std::span<const std::vector<double>> centroids,
                         const CompiledPool& kernels);

/// Whether `payload` is a flat section in the superseded "falcc-f2"
/// layout, which the loader skips (it compiles from the pool instead).
bool IsLegacyFlatSection(std::string_view payload);

/// A decoded flat section. The kernels alias the section payload (kept
/// alive through their backing) or own copies — callers cannot tell the
/// difference. Centroids are copied out: they are small and only
/// compared against the authoritative text section.
struct DecodedFlat {
  size_t centroid_width = 0;
  std::vector<double> centroids;  ///< row-major, k * centroid_width
  CompiledPool kernels;
};

/// Parses and fully validates one current-layout flat section.
/// `num_features` and `pool_size` come from the snapshot's semantic
/// sections and pin the shapes the kernels must have. `backing` keeps
/// the payload alive for zero-copy kernels (pass the mapped file handle;
/// may be null only if the payload outlives every returned kernel).
Result<DecodedFlat> DecodeFlatSection(std::string_view payload,
                                      size_t num_features, size_t pool_size,
                                      std::shared_ptr<const void> backing);

}  // namespace falcc::io

#endif  // FALCC_IO_FLAT_KERNEL_H_
