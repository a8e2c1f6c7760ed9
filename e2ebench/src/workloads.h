// The three workloads and the pieces they share: the reference
// decisions, refresh-event bookkeeping, and the closing checks.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "setup.h"
#include "trace.h"

namespace e2e {

/// Per-layer values of one pass, by metric name.
using Values = std::map<std::string, double>;

/// ClassifyBatch on the installed snapshot over the whole probe set,
/// computed before anything is timed.
std::vector<falcc::SampleDecision> ComputeReference(Stack& stack,
                                                    const Inputs& inputs);

bool SameDecision(const falcc::SampleDecision& a,
                  const falcc::SampleDecision& b);

/// Clusters with enough probe rows to drift visibly (≥ 1/64 of them).
std::vector<size_t> DriftCandidates(
    const std::vector<falcc::SampleDecision>& reference, size_t num_clusters);

/// What one pass measured: the end-to-end figures, the per-layer values
/// (traced passes only) and the spans it recorded.
struct PassResult {
  double rows_per_s = 0.0;
  /// CPU time the library spent per decided row: process CPU during the
  /// pass minus the harness's own threads (pacing, waiting, labeling).
  double cpu_us_per_row = 0.0;
  double decide_p50_us = 0.0;
  double decide_p99_us = 0.0;
  Values layers;
  std::vector<Span> spans;
  std::string root;  ///< root span name of one request
};

/// score_batch: one caller, fixed-size FalccModel::ClassifyBatch calls.
PassResult RunScoreBatch(Stack& stack, const Inputs& inputs,
                         const std::vector<falcc::SampleDecision>& reference,
                         uint64_t seed, double seconds, bool traced,
                         Outcome* outcome);

/// One alarm → refresh → replicas-serving-it event.
struct RefreshEvent {
  size_t cluster = 0;
  int64_t alarm_ns = 0;      ///< start of the Poll() that latched it
  int64_t installed_ns = 0;  ///< end of that Poll()
  int64_t converged_ns = 0;  ///< every replica serves the result
  double reassess_s = 0.0;   ///< RefreshOutcome::seconds
  uint64_t delta_bytes = 0;
  uint64_t detect_samples = 0;  ///< flipped feedback before the alarm
  bool installed = false;
  bool converged = false;
  size_t target = 0;  ///< index of the primary hash it must reach
};

/// Polls the monitor and follows every refresh until both replicas
/// serve it. Replicas apply deltas in order, so a replica serving a
/// later refresh's hash has served this one's too.
class RefreshTracker {
 public:
  explicit RefreshTracker(Stack* stack) : stack_(stack) {}

  /// One timed FairnessMonitor::Poll(); refresh attempts become events.
  /// Returns the poll's new alarms and refresh attempts, or false on a
  /// Poll error (counted in `outcome`).
  bool Poll(falcc::monitor::MonitorPollResult* result, Outcome* outcome);

  /// Marks events whose refresh every replica now serves. Returns how
  /// many installed events are still propagating.
  size_t CheckReplicas();

  /// Waits (polling replicas) until no installed event is propagating
  /// or `timeout_s` passes.
  void AwaitReplicas(double timeout_s);

  std::vector<RefreshEvent>& events() { return events_; }
  const std::vector<double>& poll_ms() const { return poll_ms_; }
  /// CPU the calling thread spent inside FairnessMonitor::Poll().
  int64_t poll_cpu_ns() const { return poll_cpu_ns_; }

  /// Records refresh spans for converged events into `spans`.
  void RecordSpans(SpanBuffer* spans) const;

 private:
  Stack* stack_;
  std::vector<RefreshEvent> events_;
  std::vector<uint64_t> hashes_;  ///< primary hash after each install
  std::vector<double> poll_ms_;
  int64_t poll_cpu_ns_ = 0;
};

/// Closing refresh probe for the workloads without drift: drifts
/// `count` seeded clusters one at a time on the idle stack by
/// classifying their probe rows through the snapshot store with flipped
/// feedback, and follows each refresh to the replicas.
void RunRefreshProbe(Stack& stack, const Inputs& inputs,
                     const std::vector<falcc::SampleDecision>& reference,
                     uint64_t seed, size_t count, RefreshTracker* tracker,
                     std::set<size_t>* refreshed, Outcome* outcome);

/// serve_open (drift = false) and drift_refresh (drift = true): open-loop
/// Poisson traffic through the 2-shard engine under the monitor.
/// `refreshed` collects every cluster whose refresh installed.
PassResult RunServe(Stack& stack, const Inputs& inputs,
                    const std::vector<falcc::SampleDecision>& reference,
                    uint64_t seed, double seconds, bool drift, bool traced,
                    RefreshTracker* tracker, std::set<size_t>* refreshed,
                    Outcome* outcome);

/// decide_p99_us is the median over blocks of this many consecutive
/// requests (in due order) of each block's p99: ten samples beyond the
/// percentile in every block.
constexpr size_t kTailBlock = 1000;

/// Open-loop arrival rate of the serving workloads (requests/s).
constexpr double kServeRate = 20000.0;

/// Each replica's decisions on a probe batch must equal the primary's,
/// field by field.
void CheckReplicasMatchPrimary(Stack& stack, const Inputs& inputs,
                               Outcome* outcome);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
