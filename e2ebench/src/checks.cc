// Reference decisions and the closing replica check.

#include <algorithm>
#include <string>

#include "workloads.h"

namespace e2e {

using falcc::ClassifyRequest;
using falcc::ClassifyResponse;
using falcc::Result;
using falcc::SampleDecision;

std::vector<SampleDecision> ComputeReference(Stack& stack,
                                             const Inputs& inputs) {
  const std::shared_ptr<const falcc::FalccModel> snapshot =
      stack.engine().snapshot();
  ClassifyRequest request;
  request.features = inputs.probe;
  request.num_features = inputs.width;
  Result<ClassifyResponse> response = snapshot->ClassifyBatch(request);
  FALCC_CHECK(response.ok(), "e2e: reference ClassifyBatch failed");
  return std::move(response).value().decisions;
}

bool SameDecision(const SampleDecision& a, const SampleDecision& b) {
  return a.label == b.label && a.probability == b.probability &&
         a.cluster == b.cluster && a.group == b.group && a.model == b.model;
}

std::vector<size_t> DriftCandidates(const std::vector<SampleDecision>& reference,
                                    size_t num_clusters) {
  std::vector<size_t> count(num_clusters, 0);
  for (const SampleDecision& d : reference) ++count[d.cluster];
  std::vector<size_t> candidates;
  for (size_t c = 0; c < num_clusters; ++c) {
    if (count[c] * 64 >= reference.size()) candidates.push_back(c);
  }
  return candidates;
}

void CheckReplicasMatchPrimary(Stack& stack, const Inputs& inputs,
                               Outcome* outcome) {
  constexpr size_t kRows = 4096;
  const size_t rows = std::min(kRows, inputs.rows);
  ClassifyRequest request;
  request.features = std::span<const double>(inputs.probe.data(),
                                             rows * inputs.width);
  request.num_features = inputs.width;
  Result<ClassifyResponse> primary =
      stack.engine().snapshot()->ClassifyBatch(request);
  for (size_t r = 0; r < stack.replicas().size(); ++r) {
    Replica& replica = stack.replicas()[r];
    outcome->attempted += rows;
    Result<ClassifyResponse> got = replica.engine->ClassifyBatch(request);
    if (!primary.ok() || !got.ok()) {
      outcome->Fail(rows, "replica probe ClassifyBatch failed");
      continue;
    }
    uint64_t differ = 0;
    for (size_t i = 0; i < rows; ++i) {
      if (!SameDecision(primary.value().decisions[i],
                        got.value().decisions[i])) {
        ++differ;
      }
    }
    outcome->Fail(differ, "replica " + std::to_string(r) +
                              " decisions differ from the primary's");
  }
}

}  // namespace e2e
