// serve_open and drift_refresh: open-loop Poisson traffic through the
// 2-shard ShardedEngine with the FairnessMonitor attached.
//
// Threads: the calling thread paces arrivals and submits (keyed, so each
// request's shard is known); one waiter per shard waits on that shard's
// tickets in submission order; one thread plays the truth source and
// polls the monitor — it labels decided requests (see attribution.h for
// how their log ids are found), calls Poll(), and with drift follows
// each refresh until both replicas serve it. Latency runs from each
// request's due time, so a stall in the pacing thread or the engine
// raises the latency of every request due behind it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "attribution.h"
#include "schedule.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {

using falcc::Result;
using falcc::SampleDecision;
using falcc::monitor::MonitorPollResult;

namespace {

/// Requests due in the first half second warm the engine; their
/// latencies are not counted (their decisions are still checked).
constexpr double kWarmupSeconds = 0.5;
/// drift_refresh: 8 events (the 8th delta brings a checkpoint), the
/// first this far into the window, the last a second before its end.
constexpr size_t kDriftEvents = 8;
constexpr double kFirstOnset = 0.5;
/// Traffic keeps flowing after the window while a drift event is still
/// unresolved, for at most this long. An event is detected only from
/// the labels the attributor can place, and their share falls when the
/// host is slow (see attribution.h), so the last event, due a second
/// before the window ends, can need several seconds of tail.
constexpr double kMaxTailSeconds = 30.0;
/// The thread wakes every millisecond to label and to watch the
/// replicas, but polls the monitor only once per kLabelsPerPoll labels
/// (bench_monitor's chunk) or after kMaxPollGapNs: the drift detector
/// takes one CUSUM step per Poll, so polling every millisecond would
/// integrate the noise of near-empty windows into false alarms.
constexpr double kLoopSleepSeconds = 0.001;
constexpr size_t kLabelsPerPoll = 256;
constexpr int64_t kMaxPollGapNs = 50'000'000;

enum class State : uint8_t { kPending, kRejected, kFailed, kDone };

struct Request {
  int64_t due_ns = 0;
  int64_t send_start_ns = 0;
  int64_t send_end_ns = 0;
  int64_t done_ns = 0;
  size_t shard = 0;
  SampleDecision decision;
  /// Written last (release) by the pacing thread or a waiter.
  std::atomic<State> state{State::kPending};
};

struct Pending {
  size_t index = 0;
  falcc::serve::ShardTicket ticket;
};

/// Hands one shard's tickets to its waiter in submission order.
class WaitQueue {
 public:
  void Push(Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(pending));
    }
    cv_.notify_one();
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// False once closed and drained.
  bool Pop(Pending* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> items_;
  bool closed_ = false;
};

/// When a refresh of `cluster` among the tracker's events from index
/// `first` on reached every replica, or 0 if none has. A traced run's
/// second pass starts at its own first event, so a refresh of the first
/// pass does not resolve a drift of the second.
int64_t ConvergedNs(RefreshTracker& tracker, size_t first, size_t cluster) {
  for (size_t i = first; i < tracker.events().size(); ++i) {
    const RefreshEvent& r = tracker.events()[i];
    if (r.cluster == cluster && r.converged) return r.converged_ns;
  }
  return 0;
}

}  // namespace

PassResult RunServe(Stack& stack, const Inputs& inputs,
                    const std::vector<SampleDecision>& reference,
                    uint64_t seed, double seconds, bool drift, bool traced,
                    RefreshTracker* tracker, std::set<size_t>* refreshed,
                    Outcome* outcome) {
  falcc::serve::ShardedEngine& engine = stack.engine();
  falcc::monitor::FairnessMonitor& monitor = stack.monitor();
  const size_t num_clusters = engine.snapshot()->num_clusters();
  const double horizon = kWarmupSeconds + seconds;
  const std::vector<Arrival> arrivals =
      PoissonArrivals(StreamSeed(seed, 1), kServeRate,
                      horizon + (drift ? kMaxTailSeconds : 0.0), inputs.rows);
  std::vector<DriftEvent> schedule;
  if (drift) {
    const double gap =
        std::max(seconds - 1.0 - kFirstOnset, 0.0) / (kDriftEvents - 1);
    schedule = DriftSchedule(StreamSeed(seed, 2), kDriftEvents,
                             kWarmupSeconds + kFirstOnset, gap,
                             DriftCandidates(reference, num_clusters));
  }

  const int64_t start = NowNs() + 2'000'000;  // 2 ms to start threads
  const int64_t warm_end = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t horizon_ns = start + static_cast<int64_t>(horizon * 1e9);
  std::vector<Request> requests(arrivals.size());
  std::vector<int64_t> due_ns(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    due_ns[i] = start + static_cast<int64_t>(arrivals[i].due * 1e9);
    requests[i].due_ns = due_ns[i];
    requests[i].shard = engine.RouteKey(i);
  }
  // Drift onsets per cluster (none = never).
  std::vector<int64_t> onset_ns(num_clusters, INT64_MAX);
  for (const DriftEvent& e : schedule) {
    onset_ns[e.cluster] = start + static_cast<int64_t>(e.onset * 1e9);
  }

  std::vector<WaitQueue> queues(engine.num_shards());
  std::atomic<size_t> sent{0};
  std::atomic<bool> pacing_done{false};
  std::atomic<bool> events_resolved{!drift};
  std::atomic<int64_t> settle_end_ns{INT64_MAX};

  // --- waiters: one per shard -------------------------------------------
  std::vector<std::unique_ptr<SpanBuffer>> waiter_spans;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    waiter_spans.push_back(
        std::make_unique<SpanBuffer>(traced, traced ? arrivals.size() * 2 : 0));
  }
  // Harness CPU (pacing, waiting, labeling) is subtracted from the
  // process's CPU to leave what the library spent.
  const int64_t process_cpu0 = ProcessCpuNs();
  std::atomic<int64_t> harness_cpu_ns{0};
  std::vector<std::thread> waiters;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    waiters.emplace_back([&, s] {
      SpanBuffer& spans = *waiter_spans[s];
      Pending pending;
      while (queues[s].Pop(&pending)) {
        Request& r = requests[pending.index];
        Result<SampleDecision> decision = pending.ticket.Wait();
        r.done_ns = NowNs();
        if (decision.ok()) r.decision = decision.value();
        r.state.store(decision.ok() ? State::kDone : State::kFailed,
                      std::memory_order_release);
        const uint64_t rid = pending.index;
        spans.Record("serve.request", nullptr, rid, r.due_ns, r.done_ns);
        spans.Record("gen.late", "serve.request", rid, r.due_ns,
                     r.send_start_ns);
        spans.Record("serve.submit", "serve.request", rid, r.send_start_ns,
                     r.send_end_ns);
        spans.Record("serve.wait", "serve.request", rid, r.send_end_ns,
                     r.done_ns);
      }
      harness_cpu_ns.fetch_add(ThreadCpuNs());
    });
  }

  // --- truth source + monitor poll thread ----------------------------------
  // Runs until traffic has stopped, every decision was labeled or
  // withheld, and every installed refresh reached the replicas (or the
  // settle time ran out).
  SpanBuffer feedback_spans(traced, traced ? arrivals.size() : 0);
  std::vector<double> feedback_ns;
  std::vector<uint64_t> flipped(num_clusters, 0);
  std::vector<bool> installed(num_clusters, false);
  FeedbackAttributor attributor;
  const uint64_t base_id = monitor.log().next_id();
  const size_t first_event = tracker->events().size();
  const int64_t poll_cpu_before = tracker->poll_cpu_ns();
  std::thread poller([&] {
    size_t cursor = 0;  // next request (submission order) to attribute
    FeedbackAttributor::Labels labels;
    bool closed = false;
    size_t labels_since_poll = 0;
    int64_t last_poll_ns = NowNs();
    for (;;) {
      const bool traffic_over = pacing_done.load(std::memory_order_acquire);
      const size_t sent_now = sent.load(std::memory_order_acquire);
      for (; cursor < sent_now; ++cursor) {
        const Request& r = requests[cursor];
        const State state = r.state.load(std::memory_order_acquire);
        if (state == State::kPending) break;
        if (state != State::kDone) continue;  // appended nothing
        const size_t c = r.decision.cluster;
        const bool flip = r.due_ns >= onset_ns[c] && !installed[c];
        flipped[c] += flip;
        attributor.Add({r.shard, r.send_start_ns, r.done_ns,
                        flip ? 1 - r.decision.label : r.decision.label},
                       &labels);
      }
      if (cursor < sent_now) {
        attributor.NextSentAt(requests[cursor].send_start_ns, &labels);
      } else if (traffic_over && !closed) {
        attributor.Close(&labels);
        closed = true;
      }
      for (const auto& [position, truth] : labels) {
        const int64_t f0 = traced ? NowNs() : 0;
        monitor.AddFeedback(base_id + position, truth);
        if (traced) {
          const int64_t f1 = NowNs();
          feedback_ns.push_back(static_cast<double>(f1 - f0));
          feedback_spans.Record("monitor.feedback", nullptr, position, f0, f1);
        }
      }
      labels_since_poll += labels.size();
      labels.clear();

      MonitorPollResult poll;
      const size_t first = tracker->events().size();
      const bool poll_now = labels_since_poll >= kLabelsPerPoll ||
                            NowNs() - last_poll_ns >= kMaxPollGapNs;
      if (poll_now) {
        labels_since_poll = 0;
        last_poll_ns = NowNs();
      }
      if (poll_now && tracker->Poll(&poll, outcome)) {
        if (!drift && !poll.new_alarms.empty()) {
          outcome->Fail(poll.new_alarms.size(), "alarm under clean feedback");
        }
        for (size_t e = first; e < tracker->events().size(); ++e) {
          RefreshEvent& event = tracker->events()[e];
          event.detect_samples = flipped[event.cluster];
          if (drift && onset_ns[event.cluster] == INT64_MAX) {
            outcome->Fail(1, "refresh of undrifted cluster " +
                                 std::to_string(event.cluster));
          }
          if (event.installed) {
            installed[event.cluster] = true;
            refreshed->insert(event.cluster);
          }
        }
      }
      const size_t propagating = tracker->CheckReplicas();
      if (drift && !events_resolved.load(std::memory_order_relaxed)) {
        bool resolved = true;
        for (const DriftEvent& e : schedule) {
          resolved = resolved &&
                     ConvergedNs(*tracker, first_event, e.cluster) > 0;
        }
        if (resolved) events_resolved.store(true, std::memory_order_release);
      }
      const int64_t settle_end = settle_end_ns.load(std::memory_order_acquire);
      if (closed && (propagating == 0 || NowNs() >= settle_end)) {
        // Only the time inside Poll() is the library's.
        harness_cpu_ns.fetch_add(ThreadCpuNs() - (tracker->poll_cpu_ns() -
                                                  poll_cpu_before));
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kLoopSleepSeconds));
    }
  });

  // --- pacing (this thread) -------------------------------------------------
  // Past the window, traffic continues only while drift is unresolved.
  std::vector<int64_t> send_start_ns(requests.size());
  const int64_t pacing_cpu0 = ThreadCpuNs();
  const size_t num_sent = RunOpenLoop(
      due_ns,
      [&](size_t i) {
        return due_ns[i] < horizon_ns ||
               !events_resolved.load(std::memory_order_acquire);
      },
      [&](size_t i) {
        Request& r = requests[i];
        r.send_start_ns = send_start_ns[i];
        Result<falcc::serve::ShardTicket> ticket =
            engine.SubmitWithKey(i, inputs.Row(arrivals[i].row));
        r.send_end_ns = NowNs();
        if (ticket.ok()) {
          queues[r.shard].Push({i, std::move(ticket).value()});
        } else {
          r.state.store(State::kRejected, std::memory_order_release);
        }
        sent.store(i + 1, std::memory_order_release);
      },
      &send_start_ns);
  // The pacing thread spins; of its CPU only the Submit calls are the
  // library's (they never block, so their wall time is their CPU).
  int64_t submit_wall_ns = 0;
  for (size_t i = 0; i < num_sent; ++i) {
    submit_wall_ns += requests[i].send_end_ns - requests[i].send_start_ns;
  }
  harness_cpu_ns.fetch_add(ThreadCpuNs() - pacing_cpu0 - submit_wall_ns);
  for (WaitQueue& q : queues) q.Close();
  for (std::thread& w : waiters) w.join();
  settle_end_ns.store(NowNs() + 5'000'000'000, std::memory_order_release);
  pacing_done.store(true, std::memory_order_release);
  poller.join();
  const int64_t library_cpu_ns =
      ProcessCpuNs() - process_cpu0 - harness_cpu_ns.load();
  if (drift) {
    // How long each event took from onset to both replicas, and how far
    // past the window traffic had to run: the margin to kMaxTailSeconds.
    std::string line;
    for (const DriftEvent& e : schedule) {
      const int64_t converged_ns =
          ConvergedNs(*tracker, first_event, e.cluster);
      char item[32];
      if (converged_ns > 0) {
        std::snprintf(item, sizeof item, " %.2f",
                      (converged_ns - onset_ns[e.cluster]) * 1e-9);
      } else {
        std::snprintf(item, sizeof item, " unresolved");
      }
      line += item;
    }
    const int64_t last_due = num_sent > 0 ? due_ns[num_sent - 1] : start;
    std::fprintf(stderr,
                 "e2e: drift onset -> replicas (s):%s; tail %.2f s of %.0f\n",
                 line.c_str(),
                 std::max<int64_t>(last_due - horizon_ns, 0) * 1e-9,
                 kMaxTailSeconds);
  }

  // --- checks ------------------------------------------------------------
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t decided = 0;
  uint64_t decided_in_window = 0;
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> submit_ns;
  latency_us.reserve(num_sent);
  for (size_t i = 0; i < num_sent; ++i) {
    const Request& r = requests[i];
    const State state = r.state.load(std::memory_order_acquire);
    rejected += state == State::kRejected;
    failed += state == State::kFailed;
    if (state == State::kDone) {
      ++decided;
      const SampleDecision& want = reference[arrivals[i].row];
      // A refreshed cluster legitimately decides differently after its
      // refresh; its region and group must still match.
      const bool ok = refreshed->count(want.cluster) > 0
                          ? r.decision.cluster == want.cluster &&
                                r.decision.group == want.group
                          : SameDecision(r.decision, want);
      mismatched += !ok;
    }
    if (r.due_ns < warm_end || r.due_ns >= horizon_ns) continue;
    if (state == State::kDone) {
      ++decided_in_window;
      latency_us.push_back(static_cast<double>(r.done_ns - r.due_ns) * 1e-3);
    } else {
      // A refused or failed request misses any latency limit.
      latency_us.push_back(1e12);
    }
    late_us.push_back(static_cast<double>(r.send_start_ns - r.due_ns) * 1e-3);
    submit_ns.push_back(static_cast<double>(r.send_end_ns - r.send_start_ns));
  }
  outcome->attempted += num_sent;
  outcome->Fail(rejected, "Submit rejected");
  outcome->Fail(failed, "ticket Wait failed");
  outcome->Fail(mismatched, "served decisions differ from reference");
  for (const DriftEvent& e : schedule) {
    outcome->attempted += 1;
    if (ConvergedNs(*tracker, first_event, e.cluster) == 0) {
      outcome->Fail(1, "drift on cluster " + std::to_string(e.cluster) +
                           " did not end with both replicas refreshed");
    }
  }

  PassResult result;
  result.root = "serve.request";
  result.rows_per_s = static_cast<double>(decided_in_window) / seconds;
  result.cpu_us_per_row =
      decided > 0 ? static_cast<double>(library_cpu_ns) / decided * 1e-3 : 0.0;
  result.decide_p50_us = QuantileOf(latency_us, 0.5);
  result.decide_p99_us =
      MedianBlockQuantile(latency_us, kTailBlock, 0.99);
  if (traced) {
    Values& v = result.layers;
    v["gen.late_p99_us"] = QuantileOf(late_us, 0.99);
    v["serve.submit_ns_p50"] = QuantileOf(submit_ns, 0.5);
    v["serve.rejected"] = static_cast<double>(rejected);
    v["monitor.feedback_ns_p50"] = QuantileOf(feedback_ns, 0.5);
    v["monitor.feedback_withheld_share"] =
        decided > 0 ? static_cast<double>(attributor.withheld()) / decided
                    : 0.0;
    std::vector<const SpanBuffer*> buffers = {&feedback_spans};
    for (const auto& b : waiter_spans) buffers.push_back(b.get());
    result.spans = Merge(buffers);
  }
  std::fprintf(stderr,
               "e2e: %s pass: %llu decided, %llu labels withheld, "
               "whole-window p99 %.1f us, p99.9 %.1f us\n",
               drift ? "drift_refresh" : "serve_open",
               static_cast<unsigned long long>(decided),
               static_cast<unsigned long long>(attributor.withheld()),
               QuantileOf(latency_us, 0.99), QuantileOf(latency_us, 0.999));
  return result;
}

}  // namespace e2e
