// Deterministic fuzz harness: seeded mutation loop + target contracts.
//
// No libFuzzer, no coverage feedback — just the structure-aware Mutator
// run for a fixed number of seeded iterations inside ctest, with every
// mutated input required to either load cleanly or fail with a clean
// Status. A target returning a non-OK Status from the *harness contract*
// (not from the loader — loader errors are the expected outcome) marks a
// finding; RunFuzz saves the offending input so it can be minimized and
// checked into tests/corpus/ as a permanent regression case.

#ifndef FALCC_TESTING_FUZZ_H_
#define FALCC_TESTING_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace falcc {

class FalccModel;

namespace testing {

/// A fuzz target: consumes one (possibly corrupt) input and returns OK
/// when the library behaved correctly — meaning it either accepted the
/// input and produced self-consistent results, or rejected it with a
/// clean error. Crashing, hanging, and UB are what the sanitizer builds
/// catch; contract violations surface through the returned Status.
using FuzzTarget = std::function<Status(const std::string&)>;

/// Harness parameters.
struct FuzzOptions {
  uint64_t seed = 1;       ///< base seed; iteration i uses seed+i streams
  size_t iterations = 2000;
  int max_mutations = 4;
  /// When non-empty, inputs that violate the contract are written here
  /// as `finding-<iteration>.bin` for triage and corpus promotion.
  std::string failure_dir;
};

/// Counters from one RunFuzz call.
struct FuzzStats {
  size_t iterations = 0;  ///< mutated inputs executed
  size_t findings = 0;    ///< contract violations
};

/// Contract for FalccModel::LoadBytes on arbitrary bytes: a clean rejection
/// or a model whose classifications are sane and whose serialization is
/// a fixed point of Save∘Load.
Status FuzzSnapshotLoad(const std::string& data);

/// Contract for ModelPool::DeserializeBinary (the v2 `pool` section
/// payload) on arbitrary bytes: a clean rejection, or a pool whose binary
/// encoding is a fixed point and each of whose models' text records
/// DeserializeClassifier reads back to the same record. Reaches the
/// decoder directly: mutated snapshot bytes mostly stop at the section
/// checksum.
Status FuzzPoolDecode(const std::string& data);

/// Contract for ParseCsv / DatasetFromCsv on arbitrary bytes.
Status FuzzCsvParse(const std::string& data);

/// Contract for FalccModel::ApplyDeltaBytes on arbitrary bytes against
/// `base`: a clean rejection, or an accepted delta whose result keeps the
/// base's shape, classifies sanely, shares the base's pool (and with it
/// every kernel) pointer-identically, and whose serialization is a
/// Save∘Load∘Save fixed point. Bind the base with a lambda to get a
/// FuzzTarget.
Status FuzzDeltaApply(const FalccModel& base, const std::string& data);

/// Contract for the socket-feed wire codec (replicate/wire.h) on an
/// arbitrary byte stream: walking DecodeFrame over it must either
/// reject with a clean message, stop at an incomplete tail, or decode
/// frames that re-encode byte-identically to the consumed bytes — and
/// the streaming FrameDecoder fed the same stream one byte at a time
/// must produce the identical frame sequence.
Status FuzzWireFrame(const std::string& data);

/// Runs `target` on `options.iterations` mutated variants of the seed
/// inputs (round-robin). Returns OK when no input violated the contract;
/// otherwise an error naming the first finding. `stats` is optional.
Status RunFuzz(const std::vector<std::string>& seeds, const FuzzTarget& target,
               const FuzzOptions& options, FuzzStats* stats = nullptr);

/// Iteration budget from FALCC_FUZZ_ITERS, or `fallback` when unset or
/// unparsable.
size_t FuzzIterationsFromEnv(size_t fallback);

/// Reads every regular file in `dir` (sorted by name) as a corpus input.
/// Missing directory yields an empty corpus, not an error.
Result<std::vector<std::string>> LoadCorpus(const std::string& dir);

}  // namespace testing
}  // namespace falcc

#endif  // FALCC_TESTING_FUZZ_H_
