// Metamorphic invariants of the FALCC pipeline, as reusable checks.
//
// Each helper states one relation the system promises to hold for every
// model and every input — batch ≡ sequential, row-permutation
// equivariance, thread-count independence, serialization fixed points,
// refresh isolation — and verifies it exhaustively over the given
// model/data, returning a descriptive error on the first violation.
// They back both the invariants test suite (over freshly trained models)
// and the fuzz harness (over whatever a mutated snapshot loads into),
// replacing the ad-hoc bit-identity checks that used to be copied
// between test files.

#ifndef FALCC_TESTING_INVARIANTS_H_
#define FALCC_TESTING_INVARIANTS_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/falcc.h"
#include "data/dataset.h"
#include "util/status.h"

namespace falcc {
namespace testing {

/// Serializes `model` into `out`.
Status SaveToString(const FalccModel& model, std::string* out);

/// Deserializes a model from `bytes`.
Result<FalccModel> LoadFromString(const std::string& bytes);

/// ClassifyBatch over all rows of `data` produces exactly the
/// per-sample Classify / ClassifyProba results, field by field.
Status CheckBatchMatchesSequential(const FalccModel& model,
                                   const Dataset& data);

/// Classifying a randomly permuted batch yields the same decision for
/// every sample as the original order (row independence).
Status CheckPermutationInvariance(const FalccModel& model, const Dataset& data,
                                  uint64_t seed);

/// ClassifyBatch on 1 worker and on 4 workers is bit-identical.
Status CheckClassifyThreadInvariance(const FalccModel& model,
                                     const Dataset& data);

/// Training on 1 worker and on 4 workers yields byte-identical
/// serialized models and identical predictions on `test`.
Status CheckTrainingThreadInvariance(const Dataset& train,
                                     const Dataset& validation,
                                     const Dataset& test,
                                     const FalccOptions& options);

/// Save → Load → Save is a byte fixed point for `model`.
Status CheckSaveLoadSaveIdempotent(const FalccModel& model);

/// Every model of `pool`, whether or not any cluster selects it, predicts
/// through ModelPool::PredictProbaBatch (its kernel, where it has one)
/// exactly what its interpreted Classifier::PredictProbaBatch predicts,
/// bit for bit, on every row of `data` — and so does every kernel
/// variant the CPU runs (PredictKernels), not just the one serving
/// dispatches to. A refresh or a delta may install any pool model, so
/// none is skipped. `data` must have the width the pool was validated
/// for.
Status CheckKernelsMatchInterpreted(const ModelPool& pool,
                                    const Dataset& data);

/// Routing determinism of the sharded serving fleet: the same rows
/// submitted through a ShardedEngine at each of `shard_counts` produce
/// decisions bit-identical — label, probability, and the full
/// (cluster, group, model) audit trail — to the single-sample loop
/// (Classify / ClassifyProba / MatchCluster / GroupOf per row). Rows are
/// submitted both round-robin and with per-row affinity keys; shard
/// choice must never leak into any decision field. Requires a
/// serializable pool (each engine serves a Save/Load round trip of
/// `model`, so the check also covers serialization identity).
///
/// One thread submits every row before waiting — a burst — so the rows
/// reach the shard workers and are classified in multi-row batches; the
/// first submissions of the burst find their shards idle and are flushed
/// inline. `counts`, if given, receives how many flushes each path ran,
/// summed over the engines, so a caller can confirm both were covered.
struct ShardedFlushCounts {
  uint64_t flushes = 0;
  uint64_t inline_flushes = 0;
};
Status CheckShardedMatchesSingleLoop(const FalccModel& model,
                                     const Dataset& data,
                                     std::span<const size_t> shard_counts,
                                     ShardedFlushCounts* counts = nullptr);

/// The offline phase's selection, re-derived from scratch: every
/// cluster's stored combination is the lowest-index argmin of L̂ over
/// EnumerateCombinations on its assessment rows (AssessmentRegions of
/// `validation`, the split `model` was trained against with `options`),
/// and its baseline loss is that L̂ bit for bit. A cluster with no rows
/// holds the argmin over all of `validation`. L̂ comes from the
/// row-by-row reference evaluator (testing/reference_loss.h) over the
/// interpreted models' votes, so neither the count-table evaluator nor
/// the kernels that produced the assessment's votes are trusted.
Status CheckRegionsAreLossOptimal(const FalccModel& model,
                                  const Dataset& validation,
                                  const FalccOptions& options);

/// CloneWithRefreshes applied to `refreshed_cluster` leaves every other
/// cluster's combination, baseline, and per-sample decisions on `data`
/// bit-identical, while the refreshed cluster serves the new
/// combination. Routing (cluster/group assignment) never changes.
Status CheckRefreshIsolation(const FalccModel& model, const Dataset& data,
                             const ClusterRefresh& refresh);

}  // namespace testing
}  // namespace falcc

#endif  // FALCC_TESTING_INVARIANTS_H_
