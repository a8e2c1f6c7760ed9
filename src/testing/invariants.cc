#include "testing/invariants.h"

#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/assessment.h"
#include "serve/sharded_engine.h"
#include "testing/reference_loss.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace falcc {
namespace testing {

namespace {

// Row-major copy of the feature matrix, the layout ClassifyRequest wants.
std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> flat;
  flat.reserve(data.num_rows() * data.num_features());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

Result<ClassifyResponse> ClassifyDataset(const FalccModel& model,
                                         const std::vector<double>& flat,
                                         size_t num_features) {
  ClassifyRequest request;
  request.features = flat;
  request.num_features = num_features;
  return model.ClassifyBatch(request);
}

bool SameDecision(const SampleDecision& a, const SampleDecision& b) {
  return a.label == b.label && a.probability == b.probability &&
         a.cluster == b.cluster && a.group == b.group && a.model == b.model;
}

std::string DecisionDiff(size_t i, const SampleDecision& a,
                         const SampleDecision& b) {
  return "sample " + std::to_string(i) + ": (label " +
         std::to_string(a.label) + ", p " + std::to_string(a.probability) +
         ", cluster " + std::to_string(a.cluster) + ", group " +
         std::to_string(a.group) + ", model " + std::to_string(a.model) +
         ") vs (label " + std::to_string(b.label) + ", p " +
         std::to_string(b.probability) + ", cluster " +
         std::to_string(b.cluster) + ", group " + std::to_string(b.group) +
         ", model " + std::to_string(b.model) + ")";
}

}  // namespace

Status SaveToString(const FalccModel& model, std::string* out) {
  std::ostringstream buffer;
  FALCC_RETURN_IF_ERROR(model.Save(&buffer));
  *out = buffer.str();
  return Status::OK();
}

Result<FalccModel> LoadFromString(const std::string& bytes) {
  return FalccModel::LoadBytes(bytes);
}

Status CheckBatchMatchesSequential(const FalccModel& model,
                                   const Dataset& data) {
  const std::vector<double> flat = Flatten(data);
  Result<ClassifyResponse> batch =
      ClassifyDataset(model, flat, data.num_features());
  if (!batch.ok()) return batch.status();
  if (batch.value().decisions.size() != data.num_rows()) {
    return Status::Internal("batch decision count != row count");
  }
  for (size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.Row(i);
    const SampleDecision& d = batch.value().decisions[i];
    if (d.label != model.Classify(row)) {
      return Status::Internal("batch label != sequential Classify at row " +
                              std::to_string(i));
    }
    if (d.probability != model.ClassifyProba(row)) {
      return Status::Internal(
          "batch probability != sequential ClassifyProba at row " +
          std::to_string(i));
    }
  }
  return Status::OK();
}

Status CheckPermutationInvariance(const FalccModel& model, const Dataset& data,
                                  uint64_t seed) {
  const size_t d = data.num_features();
  const std::vector<double> flat = Flatten(data);
  Result<ClassifyResponse> base = ClassifyDataset(model, flat, d);
  if (!base.ok()) return base.status();

  Rng rng(seed);
  const std::vector<size_t> perm = rng.Permutation(data.num_rows());
  std::vector<double> shuffled;
  shuffled.reserve(flat.size());
  for (size_t i : perm) {
    shuffled.insert(shuffled.end(), flat.begin() + static_cast<ptrdiff_t>(i * d),
                    flat.begin() + static_cast<ptrdiff_t>((i + 1) * d));
  }
  Result<ClassifyResponse> permuted = ClassifyDataset(model, shuffled, d);
  if (!permuted.ok()) return permuted.status();

  for (size_t j = 0; j < perm.size(); ++j) {
    const SampleDecision& a = permuted.value().decisions[j];
    const SampleDecision& b = base.value().decisions[perm[j]];
    if (!SameDecision(a, b)) {
      return Status::Internal("row permutation changed a decision: " +
                              DecisionDiff(perm[j], b, a));
    }
  }
  return Status::OK();
}

Status CheckClassifyThreadInvariance(const FalccModel& model,
                                     const Dataset& data) {
  const std::vector<double> flat = Flatten(data);
  const size_t previous = Parallelism();
  SetParallelism(1);
  Result<ClassifyResponse> serial =
      ClassifyDataset(model, flat, data.num_features());
  SetParallelism(4);
  Result<ClassifyResponse> parallel =
      ClassifyDataset(model, flat, data.num_features());
  SetParallelism(previous);
  if (!serial.ok()) return serial.status();
  if (!parallel.ok()) return parallel.status();
  for (size_t i = 0; i < serial.value().decisions.size(); ++i) {
    const SampleDecision& a = serial.value().decisions[i];
    const SampleDecision& b = parallel.value().decisions[i];
    if (!SameDecision(a, b)) {
      return Status::Internal("thread count changed a decision: " +
                              DecisionDiff(i, a, b));
    }
  }
  return Status::OK();
}

Status CheckTrainingThreadInvariance(const Dataset& train,
                                     const Dataset& validation,
                                     const Dataset& test,
                                     const FalccOptions& options) {
  const size_t previous = Parallelism();
  SetParallelism(1);
  Result<FalccModel> serial = FalccModel::Train(train, validation, options);
  SetParallelism(4);
  Result<FalccModel> parallel = FalccModel::Train(train, validation, options);
  SetParallelism(previous);
  if (!serial.ok()) return serial.status();
  if (!parallel.ok()) return parallel.status();

  std::string serial_bytes, parallel_bytes;
  FALCC_RETURN_IF_ERROR(SaveToString(serial.value(), &serial_bytes));
  FALCC_RETURN_IF_ERROR(SaveToString(parallel.value(), &parallel_bytes));
  if (serial_bytes != parallel_bytes) {
    return Status::Internal(
        "1-thread and 4-thread training produced different snapshots");
  }
  if (serial.value().ClassifyAll(test) != parallel.value().ClassifyAll(test)) {
    return Status::Internal(
        "1-thread and 4-thread models predict differently");
  }
  return Status::OK();
}

Status CheckSaveLoadSaveIdempotent(const FalccModel& model) {
  std::string first;
  FALCC_RETURN_IF_ERROR(SaveToString(model, &first));
  Result<FalccModel> reloaded = LoadFromString(first);
  if (!reloaded.ok()) {
    return Status::Internal("Save output does not reload: " +
                            reloaded.status().ToString());
  }
  std::string second;
  FALCC_RETURN_IF_ERROR(SaveToString(reloaded.value(), &second));
  if (first != second) {
    return Status::Internal("Save -> Load -> Save is not byte-idempotent");
  }
  return Status::OK();
}

Status CheckKernelsMatchInterpreted(const ModelPool& pool,
                                    const Dataset& data) {
  const size_t n = data.num_rows();
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<double> served(n), interpreted(n);
  const auto compare = [&](size_t m, const std::string& path) -> Status {
    for (size_t i = 0; i < n; ++i) {
      if (std::bit_cast<uint64_t>(served[i]) !=
          std::bit_cast<uint64_t>(interpreted[i])) {
        return Status::Internal(
            "pool model " + std::to_string(m) + " (" + path +
            ") diverged from its interpreted model at row " +
            std::to_string(i) + ": " + std::to_string(served[i]) + " vs " +
            std::to_string(interpreted[i]));
      }
    }
    return Status::OK();
  };
  for (size_t m = 0; m < pool.size(); ++m) {
    pool.model(m).PredictProbaBatch(data, rows, interpreted);
    pool.PredictProbaBatch(m, data.features(), data.num_features(), rows,
                           served);
    const CompiledEnsemble* kernel = pool.kernel(m);
    FALCC_RETURN_IF_ERROR(
        compare(m, kernel != nullptr ? "kernel" : "interpreted"));
    if (kernel == nullptr) continue;
    for (const PredictKernel& variant : PredictKernels()) {
      variant.fn(kernel->parts(), data.features(), data.num_features(),
                 rows, served);
      FALCC_RETURN_IF_ERROR(
          compare(m, std::string("kernel variant ") + variant.name));
    }
  }
  return Status::OK();
}

Status CheckRegionsAreLossOptimal(const FalccModel& model,
                                  const Dataset& validation,
                                  const FalccOptions& options) {
  Result<std::vector<std::vector<size_t>>> regions =
      model.AssessmentRegions(validation, options.gap_fill_k);
  if (!regions.ok()) return regions.status();
  std::vector<size_t> groups(validation.num_rows());
  for (size_t i = 0; i < groups.size(); ++i) {
    Result<size_t> group = model.GroupOf(validation.Row(i));
    if (!group.ok()) return group.status();
    groups[i] = group.value();
  }
  const ModelPool& pool = model.pool();
  std::vector<std::vector<int>> votes(pool.size());
  for (size_t m = 0; m < pool.size(); ++m) {
    votes[m] = PredictAll(pool.model(m), validation);
  }
  AssessmentContext ctx;
  ctx.votes = &votes;
  ctx.labels = validation.labels();
  ctx.groups = groups;
  ctx.num_groups = model.num_groups();
  ctx.mode = model.assess_mode();
  ctx.metric = model.assess_metric();
  ctx.lambda = model.assess_lambda();
  Result<std::vector<ModelCombination>> combos =
      EnumerateCombinations(pool, model.num_groups());
  if (!combos.ok()) return combos.status();

  // Lowest-index argmin of the reference L̂ over `rows`.
  const auto best_of = [&](std::span<const size_t> rows,
                           size_t* index, double* loss) -> Status {
    for (size_t i = 0; i < combos.value().size(); ++i) {
      Result<double> l =
          ReferenceAssessCombination(ctx, combos.value()[i], rows);
      if (!l.ok()) return l.status();
      if (i == 0 || l.value() < *loss) {
        *index = i;
        *loss = l.value();
      }
    }
    return Status::OK();
  };
  std::vector<size_t> all_rows(validation.num_rows());
  std::iota(all_rows.begin(), all_rows.end(), 0);
  size_t global_index = 0;
  double global_loss = 0.0;
  FALCC_RETURN_IF_ERROR(best_of(all_rows, &global_index, &global_loss));

  for (size_t c = 0; c < model.num_clusters(); ++c) {
    const std::vector<size_t>& rows = regions.value()[c];
    size_t index = global_index;
    double loss = global_loss;
    if (!rows.empty()) FALCC_RETURN_IF_ERROR(best_of(rows, &index, &loss));
    if (model.selected_combinations()[c] != combos.value()[index]) {
      return Status::Internal(
          "cluster " + std::to_string(c) +
          " does not hold the lowest-index loss-optimal combination (" +
          std::to_string(index) + ", L = " + std::to_string(loss) + ")");
    }
    const double stored = model.baseline_losses()[c];
    if (std::bit_cast<uint64_t>(stored) != std::bit_cast<uint64_t>(loss)) {
      return Status::Internal("cluster " + std::to_string(c) +
                              " baseline loss " + std::to_string(stored) +
                              " differs from its L = " +
                              std::to_string(loss));
    }
  }
  return Status::OK();
}

Status CheckShardedMatchesSingleLoop(const FalccModel& model,
                                     const Dataset& data,
                                     std::span<const size_t> shard_counts,
                                     ShardedFlushCounts* counts) {
  if (data.num_features() != model.num_features()) {
    return Status::InvalidArgument(
        "sharded check: dataset width != model num_features");
  }
  const size_t n = data.num_rows();

  // Single-loop reference: the per-sample entry points, one row at a
  // time — the path every sharded decision must reproduce bit for bit.
  std::vector<SampleDecision> reference(n);
  for (size_t i = 0; i < n; ++i) {
    const auto row = data.Row(i);
    SampleDecision& d = reference[i];
    d.probability = model.ClassifyProba(row);
    d.label = model.Classify(row);
    d.cluster = model.MatchCluster(row);
    Result<size_t> group = model.GroupOf(row);
    if (!group.ok()) return group.status();
    d.group = group.value();
    d.model = model.selected_combinations()[d.cluster][d.group];
  }

  std::string bytes;
  FALCC_RETURN_IF_ERROR(SaveToString(model, &bytes));

  for (const size_t shards : shard_counts) {
    Result<FalccModel> served = LoadFromString(bytes);
    if (!served.ok()) {
      return Status::Internal("sharded check: model does not reload: " +
                              served.status().ToString());
    }
    serve::ShardedEngineOptions options;
    options.num_shards = shards;
    serve::ShardedEngine engine(options);
    engine.Install(std::move(served).value());

    // Interleave round-robin and affinity-keyed submissions: both
    // routing modes must be invisible in every decision field.
    std::vector<serve::ShardTicket> tickets;
    tickets.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Result<serve::ShardTicket> ticket =
          (i % 2 == 0) ? engine.Submit(data.Row(i))
                       : engine.SubmitWithKey(static_cast<uint64_t>(i),
                                              data.Row(i));
      if (!ticket.ok()) {
        return Status::Internal("sharded check: Submit failed at row " +
                                std::to_string(i) + ": " +
                                ticket.status().ToString());
      }
      tickets.push_back(std::move(ticket).value());
    }
    for (size_t i = 0; i < n; ++i) {
      Result<SampleDecision> decision = tickets[i].Wait();
      if (!decision.ok()) {
        return Status::Internal("sharded check: Wait failed at row " +
                                std::to_string(i) + ": " +
                                decision.status().ToString());
      }
      if (!SameDecision(decision.value(), reference[i])) {
        return Status::Internal(
            "sharded (" + std::to_string(shards) +
            " shards) decision differs from single loop: " +
            DecisionDiff(i, decision.value(), reference[i]));
      }
    }
    if (counts != nullptr) {
      const serve::MetricsSnapshot fleet = engine.GetMetrics();
      counts->flushes += fleet.flushes;
      counts->inline_flushes += fleet.inline_flushes;
    }
  }
  return Status::OK();
}

Status CheckRefreshIsolation(const FalccModel& model, const Dataset& data,
                             const ClusterRefresh& refresh) {
  Result<FalccModel> cloned = model.CloneWithRefreshes({&refresh, 1});
  if (!cloned.ok()) return cloned.status();
  const FalccModel& clone = cloned.value();

  if (clone.selected_combinations()[refresh.cluster] != refresh.combination) {
    return Status::Internal("refreshed cluster did not take the combination");
  }
  for (size_t c = 0; c < model.num_clusters(); ++c) {
    if (c == refresh.cluster) continue;
    if (clone.selected_combinations()[c] != model.selected_combinations()[c]) {
      return Status::Internal("refresh touched combination of cluster " +
                              std::to_string(c));
    }
    if (clone.baseline_losses()[c] != model.baseline_losses()[c]) {
      return Status::Internal("refresh touched baseline of cluster " +
                              std::to_string(c));
    }
  }

  const std::vector<double> flat = Flatten(data);
  Result<ClassifyResponse> before =
      ClassifyDataset(model, flat, data.num_features());
  if (!before.ok()) return before.status();
  Result<ClassifyResponse> after =
      ClassifyDataset(clone, flat, data.num_features());
  if (!after.ok()) return after.status();
  for (size_t i = 0; i < before.value().decisions.size(); ++i) {
    const SampleDecision& b = before.value().decisions[i];
    const SampleDecision& a = after.value().decisions[i];
    if (a.cluster != b.cluster || a.group != b.group) {
      return Status::Internal("refresh changed routing: " +
                              DecisionDiff(i, b, a));
    }
    if (b.cluster == refresh.cluster) {
      if (a.model != refresh.combination[a.group]) {
        return Status::Internal(
            "refreshed cluster serves the wrong model at sample " +
            std::to_string(i));
      }
    } else if (!SameDecision(a, b)) {
      return Status::Internal("refresh changed an untouched cluster: " +
                              DecisionDiff(i, b, a));
    }
  }
  return Status::OK();
}

}  // namespace testing
}  // namespace falcc
