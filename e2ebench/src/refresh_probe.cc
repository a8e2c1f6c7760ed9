// Refresh-event bookkeeping and the closing refresh probe.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "schedule.h"
#include "workloads.h"

namespace e2e {

using falcc::ClassifyRequest;
using falcc::ClassifyResponse;
using falcc::Result;
using falcc::monitor::MonitorPollResult;
using falcc::monitor::RefreshOutcome;

bool RefreshTracker::Poll(MonitorPollResult* result, Outcome* outcome) {
  const int64_t cpu0 = ThreadCpuNs();
  const int64_t t0 = NowNs();
  Result<MonitorPollResult> polled = stack_->monitor().Poll();
  const int64_t t1 = NowNs();
  poll_cpu_ns_ += ThreadCpuNs() - cpu0;
  poll_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
  if (!polled.ok()) {
    outcome->Fail(1, "FairnessMonitor::Poll: " + polled.status().ToString());
    return false;
  }
  *result = std::move(polled).value();
  bool any_installed = false;
  for (const RefreshOutcome& refresh : result->refreshes) {
    any_installed = any_installed || refresh.installed;
  }
  // Refreshes of one Poll install one after another; the replicas must
  // reach the hash after the last of them.
  if (any_installed) hashes_.push_back(stack_->PrimaryHash());
  for (const RefreshOutcome& refresh : result->refreshes) {
    RefreshEvent event;
    event.cluster = refresh.cluster;
    event.alarm_ns = t0;
    event.installed_ns = t1;
    event.reassess_s = refresh.seconds;
    event.delta_bytes = refresh.delta_bytes;
    event.installed = refresh.installed;
    event.target = hashes_.empty() ? 0 : hashes_.size() - 1;
    events_.push_back(event);
  }
  return true;
}

size_t RefreshTracker::CheckReplicas() {
  size_t pending = 0;
  for (const RefreshEvent& e : events_) {
    pending += e.installed && !e.converged;
  }
  if (pending == 0) return 0;
  // Position of each replica in the primary's install sequence.
  size_t reached = hashes_.size();
  for (Replica& replica : stack_->replicas()) {
    Result<uint64_t> hash = replica.puller->ServingHash();
    size_t position = hashes_.size();  // "none yet"
    if (hash.ok()) {
      for (size_t i = hashes_.size(); i-- > 0;) {
        if (hashes_[i] == hash.value()) {
          position = i;
          break;
        }
      }
    }
    if (position == hashes_.size()) return pending;
    reached = std::min(reached, position);
  }
  const int64_t now = NowNs();
  pending = 0;
  for (RefreshEvent& e : events_) {
    if (!e.installed || e.converged) continue;
    if (e.target <= reached) {
      e.converged = true;
      e.converged_ns = now;
    } else {
      ++pending;
    }
  }
  return pending;
}

void RefreshTracker::AwaitReplicas(double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (CheckReplicas() > 0 && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void RefreshTracker::RecordSpans(SpanBuffer* spans) const {
  // Request ids far above any traffic request id.
  constexpr uint64_t kEventIdBase = uint64_t{1} << 40;
  for (size_t i = 0; i < events_.size(); ++i) {
    const RefreshEvent& e = events_[i];
    if (!e.converged) continue;
    const uint64_t id = kEventIdBase + i;
    spans->Record("refresh.event", nullptr, id, e.alarm_ns, e.converged_ns);
    spans->Record("monitor.refresh_poll", "refresh.event", id, e.alarm_ns,
                  e.installed_ns);
    spans->Record("replicate.propagate", "refresh.event", id, e.installed_ns,
                  e.converged_ns);
  }
}

void RunRefreshProbe(Stack& stack, const Inputs& inputs,
                     const std::vector<falcc::SampleDecision>& reference,
                     uint64_t seed, size_t count, RefreshTracker* tracker,
                     std::set<size_t>* refreshed, Outcome* outcome) {
  constexpr size_t kBatch = 256;
  constexpr size_t kMaxBatches = 64;
  const std::vector<size_t> candidates = DriftCandidates(
      reference, stack.engine().snapshot()->num_clusters());
  const std::vector<DriftEvent> events =
      DriftSchedule(seed, count, 0.0, 0.0, candidates);
  falcc::serve::FalccEngine* store = stack.engine().snapshot_store();
  std::vector<double> features;

  for (const DriftEvent& event : events) {
    outcome->attempted += 1;
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].cluster == event.cluster) rows.push_back(i);
    }
    size_t cursor = 0;
    uint64_t flipped = 0;
    bool refreshed_here = false;
    const size_t first_event = tracker->events().size();
    for (size_t b = 0; b < kMaxBatches && !refreshed_here; ++b) {
      features.clear();
      for (size_t i = 0; i < kBatch; ++i) {
        const auto row = inputs.Row(rows[cursor++ % rows.size()]);
        features.insert(features.end(), row.begin(), row.end());
      }
      ClassifyRequest request;
      request.features = features;
      request.num_features = inputs.width;
      // Nothing else classifies while the probe runs, so this call's
      // decisions take the next log ids in order.
      const uint64_t base = stack.monitor().log().next_id();
      Result<ClassifyResponse> response = store->ClassifyBatch(request);
      if (!response.ok()) {
        outcome->Fail(1, "probe ClassifyBatch: " +
                             response.status().ToString());
        break;
      }
      const std::vector<falcc::SampleDecision>& got =
          response.value().decisions;
      for (size_t i = 0; i < got.size(); ++i) {
        const bool flip = got[i].cluster == event.cluster;
        flipped += flip;
        stack.monitor().AddFeedback(base + i,
                                    flip ? 1 - got[i].label : got[i].label);
      }
      MonitorPollResult poll;
      if (!tracker->Poll(&poll, outcome)) break;
      for (size_t e = first_event; e < tracker->events().size(); ++e) {
        RefreshEvent& refresh = tracker->events()[e];
        if (refresh.cluster == event.cluster) {
          refresh.detect_samples = flipped;
          refreshed_here = refresh.installed;
        }
      }
    }
    tracker->AwaitReplicas(10.0);
    bool converged = false;
    for (size_t e = first_event; e < tracker->events().size(); ++e) {
      const RefreshEvent& refresh = tracker->events()[e];
      if (refresh.installed) refreshed->insert(refresh.cluster);
      if (refresh.cluster == event.cluster) converged = refresh.converged;
      if (refresh.cluster != event.cluster) {
        outcome->Fail(1, "probe: refresh of undrifted cluster " +
                             std::to_string(refresh.cluster));
      }
    }
    if (!converged) {
      outcome->Fail(1, "probe: cluster " + std::to_string(event.cluster) +
                           " was not refreshed on both replicas");
    }
  }
}

}  // namespace e2e
