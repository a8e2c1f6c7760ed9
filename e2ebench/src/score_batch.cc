// score_batch: the paper's online phase with no queue, monitor or
// replica — one caller thread sending fixed-size ClassifyBatch calls on
// the installed snapshot, the thread pool at nproc.

#include <vector>

#include "schedule.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {

using falcc::ClassifyRequest;
using falcc::ClassifyResponse;
using falcc::Result;

namespace {

constexpr size_t kBatchRows = 4096;
/// Calls in the first half second warm caches and the pool; untimed.
constexpr double kWarmupSeconds = 0.5;

}  // namespace

PassResult RunScoreBatch(Stack& stack, const Inputs& inputs,
                         const std::vector<falcc::SampleDecision>& reference,
                         uint64_t seed, double seconds, bool traced,
                         Outcome* outcome) {
  const std::shared_ptr<const falcc::FalccModel> model =
      stack.engine().snapshot();
  const size_t num_batches = inputs.rows / kBatchRows;
  SplitMix64 order(seed);

  SpanBuffer spans(traced, 1 << 16);
  std::vector<double> call_s;
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
  double stage_ns[4] = {0.0, 0.0, 0.0, 0.0};  // validate..predict
  double timed_rows = 0.0;

  const int64_t start = NowNs();
  const int64_t warm_end = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t end = warm_end + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t call = 0;; ++call) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    if (t0 >= end) break;
    const size_t batch = order.Below(num_batches);
    ClassifyRequest request;
    request.features = std::span<const double>(
        inputs.probe.data() + batch * kBatchRows * inputs.width,
        kBatchRows * inputs.width);
    request.num_features = inputs.width;
    Result<ClassifyResponse> response = model->ClassifyBatch(request);
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ProcessCpuNs();

    outcome->attempted += kBatchRows;
    if (!response.ok()) {
      outcome->Fail(kBatchRows, "ClassifyBatch: " +
                                    response.status().ToString());
      continue;
    }
    const std::vector<falcc::SampleDecision>& got =
        response.value().decisions;
    uint64_t mismatched = 0;
    for (size_t i = 0; i < kBatchRows; ++i) {
      if (!SameDecision(got[i], reference[batch * kBatchRows + i])) {
        ++mismatched;
      }
    }
    outcome->Fail(mismatched, "score_batch decisions differ from reference");
    if (t0 < warm_end) continue;

    call_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    const falcc::ClassifyStageSeconds& st = response.value().stages;
    const double stages[4] = {st.validate, st.transform, st.match,
                              st.predict};
    wall_ns += static_cast<double>(t1 - t0);
    cpu_ns += static_cast<double>(cpu1 - cpu0);
    timed_rows += kBatchRows;
    // The stages are timed inside ClassifyBatch and run in this order;
    // their spans are laid end to end from the call's start.
    static const char* const kStageNames[4] = {
        "core.validate", "data.transform", "cluster.match", "ml.predict"};
    int64_t cursor = t0;
    for (int s = 0; s < 4; ++s) {
      stage_ns[s] += stages[s] * 1e9;
      const int64_t len = static_cast<int64_t>(stages[s] * 1e9);
      spans.Record(kStageNames[s], "score.request", call, cursor,
                   cursor + len);
      cursor += len;
    }
    spans.Record("score.request", nullptr, call, t0, t1);
  }

  PassResult result;
  result.root = "score.request";
  const double median_call_s = QuantileOf(call_s, 0.5);
  result.rows_per_s = median_call_s > 0.0 ? kBatchRows / median_call_s : 0.0;
  result.cpu_us_per_row = timed_rows > 0.0 ? cpu_ns / timed_rows * 1e-3 : 0.0;
  result.decide_p50_us = median_call_s * 1e6;
  result.decide_p99_us = MedianBlockQuantile(call_s, kTailBlock, 0.99) * 1e6;
  if (timed_rows > 0.0 && wall_ns > 0.0) {
    result.layers["core.validate_ns_per_row"] = stage_ns[0] / timed_rows;
    result.layers["data.transform_ns_per_row"] = stage_ns[1] / timed_rows;
    result.layers["cluster.match_ns_per_row"] = stage_ns[2] / timed_rows;
    result.layers["ml.predict_ns_per_row"] = stage_ns[3] / timed_rows;
    const double staged = stage_ns[0] + stage_ns[1] + stage_ns[2] +
                          stage_ns[3];
    result.layers["core.unattributed_share"] = (wall_ns - staged) / wall_ns;
  }
  result.spans = spans.spans();
  return result;
}

}  // namespace e2e
