// Serving benchmark: the sharded fleet vs the bare single-sample loop.
//
// Open-loop mode (whole probe set, median of --reps):
//
//  * single_loop — each client thread walks its partition calling
//    FalccModel::Classify per sample (the unqueued per-request path).
//
// Closed-loop mode (each client submits ONE sample, waits for its
// decision, repeats — the latency-honest load shape an online service
// sees):
//
//  * sharded — closed loop through serve::ShardedEngine at each shard
//    count in the sweep, mixing round-robin and keyed routing. Each
//    shard flushes its whole backlog: batches collapse to ~1 when idle
//    and grow with the queue. --slo-us is this benchmark's latency
//    target, not an engine option: one shard is the single-queue
//    configuration, and every row's throughput at a p99 within the
//    target is reported relative to it.
//
// Open-loop Poisson sweep (two independent clients, each pacing its own
// Poisson stream, together 5k–80k requests/s per shard count, keyed
// submission):
//
//  * open_loop — per-row library CPU (process CPU minus the clients'
//    pacing and waiting threads, plus their time inside Submit), the
//    achieved submit-to-decision p99, and the share of requests a
//    submitting thread flushed itself on an idle shard: the sweep shows
//    where idle-shard flushing hands off to the queue.
//
// Burst mode (per shard count, one thread submits a wave of kBurstWave
// keyed samples, then waits on all of them — the shape of a bulk
// classify or a replay):
//
//  * burst — rows/s, the inline share and rows per flush: a burst must
//    fan out to the shard workers and batch there, not run row by row
//    on the submitting thread.
//
// Every decision in every mode is compared against a ClassifyBatch
// reference computed on the original (pre-round-trip) model; the binary
// exits non-zero on any mismatch. `--smoke` runs a seconds-scale variant
// (small model, 2 shard counts) and additionally fails when the sharded
// fleet's best achieved p99 exceeds 10x the configured SLO — the
// tools/check.sh regression gate. Results go to BENCH_serve.json
// (schema v6: per-shard-count rows with offered load, achieved p99, and
// throughput at SLO vs one shard; the open-loop sweep; the burst rows;
// one `reload_ms` for a full snapshot reload next to `delta_apply_ms`).

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/falcc.h"
#include "datagen/synthetic.h"
#include "serve/engine.h"
#include "serve/metrics.h"
#include "serve/sharded_engine.h"
#include "util/rng.h"
#include "util/timer.h"

namespace falcc {
namespace {

struct ModeResult {
  std::string mode;
  size_t threads = 1;
  double seconds = 0.0;  ///< median wall-clock for the whole probe set
  double throughput = 0.0;
  serve::LatencySummary latency;
  bool predictions_identical = true;
};

/// One closed-loop load point: `clients` concurrent submit-wait loops.
struct LoadPoint {
  size_t clients = 0;
  double offered_load = 0.0;  ///< rows/s (closed loop: offered==achieved)
  serve::LatencySummary latency;
  bool predictions_identical = true;
};

/// One shard count's closed-loop sweep, reduced to the v2 schema row.
struct ShardedRow {
  size_t shards = 0;
  std::vector<LoadPoint> points;
  double offered_load = 0.0;    ///< at the point backing throughput_at_slo
  double achieved_p99 = 0.0;    ///< ditto
  double throughput_at_slo = 0.0;
  double ratio_vs_one_shard = 0.0;
  bool predictions_identical = true;
};

/// One open-loop load point: Poisson arrivals at `rate` requests/s into
/// `shards` shards.
struct OpenLoopPoint {
  size_t shards = 0;
  double rate = 0.0;  ///< offered requests/s
  size_t requests = 0;
  double cpu_us_per_row = 0.0;
  serve::LatencySummary latency;  ///< submit → decision, per ticket
  double inline_share = 0.0;      ///< requests flushed by their submitter
  double batch_rows_mean = 0.0;   ///< samples / flushes
  bool predictions_identical = true;
};

/// One burst point: waves of samples submitted by one thread, then
/// waited on, through `shards` shards.
struct BurstPoint {
  size_t shards = 0;
  size_t rows = 0;
  double throughput = 0.0;       ///< rows / median wall-clock
  double inline_share = 0.0;     ///< samples their submitter flushed
  double batch_rows_mean = 0.0;  ///< samples / flushes
  bool predictions_identical = true;
};

/// Snapshot-distribution costs: what a replica pays to pick up a new
/// model the two ways the engine supports (full reload of a snapshot
/// file, incremental delta apply).
struct ReloadResult {
  size_t full_bytes = 0;
  size_t delta_bytes = 0;
  double reload_seconds = 0.0;
  double delta_apply_seconds = 0.0;
  bool predictions_identical = true;
};

/// A pool of 24 deep AdaBoost ensembles over 32 local regions — a
/// serving-scale model whose pool working set exceeds the L2 cache.
FalccOptions ServingScaleOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 32;
  opt.trainer.pool_size = 24;
  opt.trainer.estimator_grid = {30, 35, 40, 45, 50, 60};
  opt.trainer.depth_grid = {8, 9};
  // Keep every candidate: pool breadth, not validation pruning, is the
  // point of this workload.
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

/// Smoke-gate model: trains in seconds, still exercises every layer.
FalccOptions SmokeOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.pool_size = 3;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  return opt;
}

ModeResult RunSingleLoop(const FalccModel& model,
                         std::span<const double> flat, size_t width,
                         size_t threads, size_t reps,
                         const ClassifyResponse& reference) {
  const size_t rows = flat.size() / width;
  ModeResult result;
  result.mode = "single_loop";
  result.threads = threads;

  serve::LatencyHistogram hist;
  std::vector<int> labels(rows, -1);
  std::vector<double> times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer wall;
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      clients.emplace_back([&, t] {
        const size_t begin = t * rows / threads;
        const size_t end = (t + 1) * rows / threads;
        for (size_t i = begin; i < end; ++i) {
          const std::span<const double> sample(flat.data() + i * width, width);
          Timer call;
          labels[i] = model.Classify(sample);
          hist.Record(call.ElapsedSeconds());
        }
      });
    }
    for (std::thread& client : clients) client.join();
    times[rep] = wall.ElapsedSeconds();
    for (size_t i = 0; i < rows; ++i) {
      if (labels[i] != reference.decisions[i].label) {
        result.predictions_identical = false;
      }
    }
  }
  std::sort(times.begin(), times.end());
  result.seconds = times[times.size() / 2];
  result.throughput = rows / result.seconds;
  result.latency = hist.Summarize();
  return result;
}

/// Closed-loop driver: each client thread walks
/// its partition of the first `rows` samples submitting one and waiting
/// for its decision before the next. `submit` maps a row index to a
/// decision; rows are compared against `reference`.
template <typename SubmitFn>
LoadPoint RunClosedLoop(size_t rows, size_t clients, size_t reps,
                        const ClassifyResponse& reference,
                        const SubmitFn& submit) {
  LoadPoint point;
  point.clients = clients;
  std::vector<SampleDecision> decisions(rows);
  std::vector<double> times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer wall;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        const size_t begin = t * rows / clients;
        const size_t end = (t + 1) * rows / clients;
        for (size_t i = begin; i < end; ++i) {
          Result<SampleDecision> d = submit(t, i);
          FALCC_CHECK(d.ok(), "bench: closed-loop submit failed");
          decisions[i] = d.value();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    times[rep] = wall.ElapsedSeconds();
    for (size_t i = 0; i < rows; ++i) {
      if (decisions[i].label != reference.decisions[i].label ||
          decisions[i].probability != reference.decisions[i].probability) {
        point.predictions_identical = false;
      }
    }
  }
  std::sort(times.begin(), times.end());
  point.offered_load = rows / times[times.size() / 2];
  return point;
}

ShardedRow RunSharded(const std::string& model_bytes,
                      std::span<const double> flat, size_t width,
                      size_t rows, size_t shards,
                      const std::vector<size_t>& client_sweep, size_t reps,
                      double slo_seconds, const ClassifyResponse& reference) {
  ShardedRow row;
  row.shards = shards;
  for (size_t clients : client_sweep) {
    serve::ShardedEngineOptions options;
    options.num_shards = shards;
    serve::ShardedEngine engine(options);
    engine.Install(FalccModel::LoadBytes(model_bytes).value());
    // Odd clients use keyed affinity routing, even ones round-robin —
    // both paths must stay bit-identical to the reference.
    LoadPoint point = RunClosedLoop(
        rows, clients, reps, reference,
        [&](size_t client, size_t i) -> Result<SampleDecision> {
          const std::span<const double> sample(flat.data() + i * width, width);
          if (client % 2 == 0) return engine.Classify(sample);
          Result<serve::ShardTicket> ticket = engine.SubmitWithKey(i, sample);
          if (!ticket.ok()) return ticket.status();
          return ticket.value().Wait();
        });
    engine.Shutdown();  // join workers before reading per-ticket totals
    point.latency = engine.GetMetrics().total;  // true submit-to-completion
    row.predictions_identical =
        row.predictions_identical && point.predictions_identical;
    row.points.push_back(point);
  }
  // throughput_at_slo: the best offered load whose achieved p99 met the
  // SLO; falls back to the overall best point (reported as 0 at-SLO).
  const LoadPoint* best_at_slo = nullptr;
  const LoadPoint* best_overall = nullptr;
  for (const LoadPoint& point : row.points) {
    if (best_overall == nullptr ||
        point.offered_load > best_overall->offered_load) {
      best_overall = &point;
    }
    if (point.latency.p99_seconds <= slo_seconds &&
        (best_at_slo == nullptr ||
         point.offered_load > best_at_slo->offered_load)) {
      best_at_slo = &point;
    }
  }
  const LoadPoint* reported = best_at_slo ? best_at_slo : best_overall;
  row.offered_load = reported->offered_load;
  row.achieved_p99 = reported->latency.p99_seconds;
  row.throughput_at_slo = best_at_slo ? best_at_slo->offered_load : 0.0;
  return row;
}

int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Sleeps until 150 µs before `due`, then spins: arrivals keep their
/// Poisson spacing below the sleep granularity.
void PaceUntil(std::chrono::steady_clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(150);
  if (due - std::chrono::steady_clock::now() > kSpin) {
    std::this_thread::sleep_until(due - kSpin);
  }
  while (std::chrono::steady_clock::now() < due) {
  }
}

/// Independent clients of the open-loop sweep. One client never finds
/// its shard busy (its own inline flush finishes before its next
/// submit), so the hand-off to the queue needs at least two; two pacing
/// threads plus the shard workers still fit a 4-core box.
constexpr size_t kOpenLoopClients = 2;

/// One open-loop client: a seeded Poisson stream, its tickets, and what
/// its two threads spent.
struct OpenLoopClient {
  std::vector<double> due;  ///< seconds after the start
  std::vector<serve::ShardTicket> tickets;
  std::vector<SampleDecision> decisions;
  std::atomic<size_t> published{0};
  int64_t pacing_cpu_ns = 0;
  int64_t waiter_cpu_ns = 0;
  double submit_seconds = 0.0;
};

/// One open-loop point: kOpenLoopClients clients, each a pacing thread
/// that sends its own Poisson stream (together: `rate` requests/s) on
/// time, keyed by a request id, and a waiter thread that waits on that
/// client's tickets in order. The library's CPU is the process's minus
/// the clients' threads, plus the wall time of their Submit calls
/// (which never block, so their wall time is their CPU).
OpenLoopPoint RunOpenLoopPoint(const std::string& model_bytes,
                               std::span<const double> flat, size_t width,
                               size_t shards, double rate, double seconds,
                               const ClassifyResponse& reference) {
  OpenLoopPoint point;
  point.shards = shards;
  point.rate = rate;
  const size_t rows = flat.size() / width;
  serve::ShardedEngineOptions options;
  options.num_shards = shards;
  serve::ShardedEngine engine(options);
  engine.Install(FalccModel::LoadBytes(model_bytes).value());

  std::array<OpenLoopClient, kOpenLoopClients> clients;
  for (size_t c = 0; c < kOpenLoopClients; ++c) {
    OpenLoopClient& client = clients[c];
    Rng rng(static_cast<uint64_t>(rate) * 31 + shards * 7 + c);
    const double client_rate = rate / kOpenLoopClients;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.Uniform()) / client_rate;
      if (t >= seconds) break;
      client.due.push_back(t);
    }
    client.tickets.resize(client.due.size());
    client.decisions.resize(client.due.size());
    point.requests += client.due.size();
  }
  // Request j of client c has id j * kOpenLoopClients + c: its routing
  // key, and (mod rows) its probe row.
  const auto id = [](size_t c, size_t j) { return j * kOpenLoopClients + c; };

  const int64_t process_cpu0 = CpuClockNs(CLOCK_PROCESS_CPUTIME_ID);
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kOpenLoopClients; ++c) {
    OpenLoopClient& client = clients[c];
    threads.emplace_back([&client] {
      for (size_t j = 0; j < client.tickets.size(); ++j) {
        while (client.published.load(std::memory_order_acquire) <= j) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        client.decisions[j] = client.tickets[j].Wait().value();
      }
      client.waiter_cpu_ns = CpuClockNs(CLOCK_THREAD_CPUTIME_ID);
    });
    threads.emplace_back([&, c] {
      for (size_t j = 0; j < client.due.size(); ++j) {
        PaceUntil(start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(client.due[j])));
        const size_t i = id(c, j);
        const std::span<const double> sample(flat.data() + (i % rows) * width,
                                             width);
        Timer submit;
        Result<serve::ShardTicket> ticket = engine.SubmitWithKey(i, sample);
        client.submit_seconds += submit.ElapsedSeconds();
        FALCC_CHECK(ticket.ok(), "bench: open-loop submit failed");
        client.tickets[j] = std::move(ticket).value();
        client.published.store(j + 1, std::memory_order_release);
      }
      client.pacing_cpu_ns = CpuClockNs(CLOCK_THREAD_CPUTIME_ID);
    });
  }
  for (std::thread& thread : threads) thread.join();
  int64_t library_cpu_ns = CpuClockNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
  for (const OpenLoopClient& client : clients) {
    library_cpu_ns += static_cast<int64_t>(client.submit_seconds * 1e9) -
                      client.pacing_cpu_ns - client.waiter_cpu_ns;
  }
  engine.Shutdown();  // join workers before reading per-ticket totals

  point.cpu_us_per_row =
      point.requests == 0
          ? 0.0
          : library_cpu_ns * 1e-3 / static_cast<double>(point.requests);
  const serve::MetricsSnapshot metrics = engine.GetMetrics();
  point.latency = metrics.total;
  point.batch_rows_mean =
      metrics.flushes > 0 ? static_cast<double>(metrics.samples) /
                                static_cast<double>(metrics.flushes)
                          : 0.0;
  point.inline_share =
      point.requests == 0 ? 0.0
                          : static_cast<double>(metrics.inline_flushes) /
                                static_cast<double>(point.requests);
  for (size_t c = 0; c < kOpenLoopClients; ++c) {
    for (size_t j = 0; j < clients[c].decisions.size(); ++j) {
      const SampleDecision& got = clients[c].decisions[j];
      const SampleDecision& want = reference.decisions[id(c, j) % rows];
      if (got.label != want.label || got.probability != want.probability) {
        point.predictions_identical = false;
      }
    }
  }
  return point;
}

/// Samples one thread submits before waiting, in burst mode.
constexpr size_t kBurstWave = 1024;

/// One burst point: the first `rows` probe samples, in waves of
/// kBurstWave keyed submissions from one thread followed by waits on the
/// wave's tickets; median wall-clock of `reps`, a fresh engine per rep.
BurstPoint RunBurstPoint(const std::string& model_bytes,
                         std::span<const double> flat, size_t width,
                         size_t rows, size_t shards, size_t reps,
                         const ClassifyResponse& reference) {
  BurstPoint point;
  point.shards = shards;
  point.rows = rows;
  std::vector<double> times(reps);
  uint64_t samples = 0;
  uint64_t flushes = 0;
  uint64_t inline_flushes = 0;
  std::vector<serve::ShardTicket> tickets;
  tickets.reserve(kBurstWave);
  for (size_t rep = 0; rep < reps; ++rep) {
    serve::ShardedEngineOptions options;
    options.num_shards = shards;
    serve::ShardedEngine engine(options);
    engine.Install(FalccModel::LoadBytes(model_bytes).value());
    Timer wall;
    for (size_t begin = 0; begin < rows; begin += kBurstWave) {
      const size_t end = std::min(rows, begin + kBurstWave);
      tickets.clear();
      for (size_t i = begin; i < end; ++i) {
        Result<serve::ShardTicket> ticket = engine.SubmitWithKey(
            i, std::span<const double>(flat.data() + i * width, width));
        FALCC_CHECK(ticket.ok(), "bench: burst submit failed");
        tickets.push_back(std::move(ticket).value());
      }
      for (size_t i = begin; i < end; ++i) {
        const SampleDecision got = tickets[i - begin].Wait().value();
        const SampleDecision& want = reference.decisions[i];
        if (got.label != want.label || got.probability != want.probability) {
          point.predictions_identical = false;
        }
      }
    }
    times[rep] = wall.ElapsedSeconds();
    engine.Shutdown();
    const serve::MetricsSnapshot metrics = engine.GetMetrics();
    samples += metrics.samples;
    flushes += metrics.flushes;
    inline_flushes += metrics.inline_flushes;
  }
  std::sort(times.begin(), times.end());
  point.throughput = static_cast<double>(rows) / times[reps / 2];
  point.inline_share =
      samples > 0 ? static_cast<double>(inline_flushes) / samples : 0.0;
  point.batch_rows_mean =
      flushes > 0 ? static_cast<double>(samples) / flushes : 0.0;
  return point;
}

ReloadResult RunReloadBench(const FalccModel& model,
                            const std::string& model_bytes, size_t reps,
                            std::span<const double> flat, size_t width,
                            const ClassifyResponse& reference) {
  ReloadResult result;
  result.full_bytes = model_bytes.size();

  const std::string path = "BENCH_serve_reload.falcc";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    FALCC_CHECK(static_cast<bool>(out), "bench: cannot write reload model");
    out << model_bytes;
  }

  // The delta: cluster 0 re-pointed at a different pool model, exactly
  // what monitor::Refresher publishes after an alarm.
  ModelCombination changed = model.selected_combinations()[0];
  changed[0] = (changed[0] + 1) % model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = changed;
  refresh.baseline_loss = 0.25;
  const FalccModel next = model.CloneWithRefreshes({&refresh, 1}).value();
  std::string delta_bytes;
  {
    std::ostringstream out;
    const size_t clusters[] = {0};
    FALCC_CHECK(
        next.SaveDelta(&out, clusters, model.ContentHash().value()).ok(),
        "bench: SaveDelta failed");
    delta_bytes = out.str();
  }
  result.delta_bytes = delta_bytes.size();

  serve::FalccEngine engine;

  std::vector<double> reload_times(reps), delta_times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer reload;
    FALCC_CHECK(engine.ReloadMapped(path).ok(), "bench: reload failed");
    reload_times[rep] = reload.ElapsedSeconds();

    // The reloaded snapshot is the delta's base, so apply is timed from
    // exactly the state a replica would be in.
    Timer delta;
    FALCC_CHECK(engine.ApplyDeltaBytes(delta_bytes).ok(),
                "bench: delta apply failed");
    delta_times[rep] = delta.ElapsedSeconds();
  }
  std::sort(reload_times.begin(), reload_times.end());
  std::sort(delta_times.begin(), delta_times.end());
  result.reload_seconds = reload_times[reps / 2];
  result.delta_apply_seconds = delta_times[reps / 2];

  // The post-delta engine serves the refreshed model bit-identically;
  // untouched clusters match the pre-delta reference.
  ClassifyRequest request;
  request.features = flat;
  request.num_features = width;
  const ClassifyResponse served = engine.ClassifyBatch(request).value();
  const ClassifyResponse expected = next.ClassifyBatch(request).value();
  for (size_t i = 0; i < served.decisions.size(); ++i) {
    const SampleDecision& s = served.decisions[i];
    const SampleDecision& e = expected.decisions[i];
    if (s.label != e.label || s.probability != e.probability ||
        s.cluster != e.cluster || s.model != e.model) {
      result.predictions_identical = false;
    }
    if (s.cluster != 0 &&
        (s.label != reference.decisions[i].label ||
         s.probability != reference.decisions[i].probability)) {
      result.predictions_identical = false;
    }
  }
  std::remove(path.c_str());
  return result;
}

/// The measured answer to "do 4 shards reach >= 3x one shard's
/// throughput at the SLO?", for the JSON's hardware_note.
std::string ScalingAnswer(const std::vector<ShardedRow>& sharded,
                          double slo_seconds) {
  const ShardedRow* four = nullptr;
  for (const ShardedRow& row : sharded) {
    if (row.shards == 4) four = &row;
  }
  std::ostringstream note;
  note << std::thread::hardware_concurrency() << " core(s): ";
  if (four == nullptr) {
    note << "no 4-shard row in this sweep, so the 4-shard scaling question "
            "is not measured";
    return note.str();
  }
  note << (four->ratio_vs_one_shard >= 3.0 ? "yes" : "no")
       << ", 4 shards reach " << four->ratio_vs_one_shard
       << "x one shard's closed-loop throughput at a p99 <= "
       << slo_seconds * 1e6 << " us (criterion: >= 3x)";
  return note.str();
}

/// The open-loop sweep's answer to "where does idle-shard flushing hand
/// off to the queue?": per shard count, the inline share at the lowest
/// and highest offered rate, the highest rate at which most requests
/// were still flushed by their submitter, and the per-row CPU range.
std::string OpenLoopAnswer(const std::vector<OpenLoopPoint>& open_loop) {
  std::ostringstream note;
  note << std::fixed << std::setprecision(2) << "open loop:";
  for (size_t i = 0; i < open_loop.size();) {
    // Points of one shard count are adjacent, in rising rate order.
    size_t end = i;
    double mostly_inline = 0.0;
    double cpu_lo = open_loop[i].cpu_us_per_row;
    double cpu_hi = cpu_lo;
    for (; end < open_loop.size() && open_loop[end].shards ==
                                         open_loop[i].shards;
         ++end) {
      const OpenLoopPoint& p = open_loop[end];
      if (p.inline_share >= 0.5) mostly_inline = p.rate;
      cpu_lo = std::min(cpu_lo, p.cpu_us_per_row);
      cpu_hi = std::max(cpu_hi, p.cpu_us_per_row);
    }
    const OpenLoopPoint& first = open_loop[i];
    const OpenLoopPoint& last = open_loop[end - 1];
    note << " " << first.shards << " shard(s): inline share "
         << first.inline_share << " at " << static_cast<int>(first.rate)
         << " to " << last.inline_share << " at "
         << static_cast<int>(last.rate) << " req/s, most inline up to "
         << static_cast<int>(mostly_inline) << " req/s, " << std::setprecision(1)
         << cpu_lo << "-" << cpu_hi << " us CPU/row;" << std::setprecision(2);
    i = end;
  }
  return note.str();
}

void WriteServeJson(const std::string& path, size_t train_rows,
                    size_t probe_rows, size_t closed_loop_rows,
                    const FalccModel& model, size_t reps, double slo_seconds,
                    const std::vector<ModeResult>& results,
                    const std::vector<ShardedRow>& sharded,
                    const std::vector<OpenLoopPoint>& open_loop,
                    const std::vector<BurstPoint>& burst,
                    const ReloadResult& reload) {
  std::ofstream out(path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_serve.json");
  out << "{\n";
  out << "  \"benchmark\": \"serve_engine\",\n";
  out << "  \"schema_version\": 6,\n";
  bench::WriteProvenance(out);
  out << "  \"dataset\": \"implicit\",\n";
  out << "  \"train_rows\": " << train_rows << ",\n";
  out << "  \"probe_rows\": " << probe_rows << ",\n";
  out << "  \"closed_loop_rows\": " << closed_loop_rows << ",\n";
  out << "  \"pool_size\": " << model.pool().size() << ",\n";
  out << "  \"clusters\": " << model.num_clusters() << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"slo_us\": " << slo_seconds * 1e6 << ",\n";
  out << "  \"hardware_note\": \"" << ScalingAnswer(sharded, slo_seconds)
      << "; " << OpenLoopAnswer(open_loop) << "\",\n";
  out << "  \"note\": \"open-loop rows: throughput = probe_rows / median "
         "wall-clock, latency per Classify call. "
         "closed_loop: each client submits one sample and waits; "
         "offered_load_rows_per_sec = closed_loop_rows / median wall-clock; "
         "achieved p-values are true per-ticket submit-to-completion "
         "latencies from log-linear histograms (<=2% relative error). "
         "throughput_at_slo = best offered load whose achieved p99 met "
         "slo_us (0 = no point met it); ratio_vs_one_shard divides by the "
         "one-shard row (its at-SLO throughput, or its best throughput "
         "when it never met the SLO). open_loop: two clients each send "
         "seeded Poisson arrivals, together rate_per_sec, keyed; "
         "cpu_us_per_row = process CPU minus the clients' pacing and "
         "waiting threads plus their wall time inside Submit, per request; "
         "achieved p-values are "
         "submit-to-decision; inline_share = requests their submitter "
         "flushed on an idle shard. burst: one thread submits waves of "
      << kBurstWave
      << " keyed samples and then waits on each wave; throughput = rows / "
         "median wall-clock\",\n";
  out << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds
        << ", \"throughput_rows_per_sec\": " << r.throughput
        << ", \"p50_us\": " << r.latency.p50_seconds * 1e6
        << ", \"p95_us\": " << r.latency.p95_seconds * 1e6
        << ", \"p99_us\": " << r.latency.p99_seconds * 1e6
        << ", \"predictions_identical\": "
        << (r.predictions_identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"sharded\": [\n";
  for (size_t i = 0; i < sharded.size(); ++i) {
    const ShardedRow& row = sharded[i];
    out << "    {\"shards\": " << row.shards
        << ", \"slo_us\": " << slo_seconds * 1e6
        << ", \"offered_load_rows_per_sec\": " << row.offered_load
        << ", \"achieved_p99_us\": " << row.achieved_p99 * 1e6
        << ", \"throughput_at_slo\": " << row.throughput_at_slo
        << ", \"ratio_vs_one_shard\": " << row.ratio_vs_one_shard
        << ", \"predictions_identical\": "
        << (row.predictions_identical ? "true" : "false")
        << ",\n     \"load_points\": [\n";
    for (size_t j = 0; j < row.points.size(); ++j) {
      const LoadPoint& p = row.points[j];
      out << "       {\"clients\": " << p.clients
          << ", \"offered_load_rows_per_sec\": " << p.offered_load
          << ", \"achieved_p50_us\": " << p.latency.p50_seconds * 1e6
          << ", \"achieved_p99_us\": " << p.latency.p99_seconds * 1e6
          << ", \"predictions_identical\": "
          << (p.predictions_identical ? "true" : "false") << "}"
          << (j + 1 < row.points.size() ? "," : "") << "\n";
    }
    out << "     ]}" << (i + 1 < sharded.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"open_loop\": [\n";
  for (size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopPoint& p = open_loop[i];
    out << "    {\"shards\": " << p.shards << ", \"rate_per_sec\": " << p.rate
        << ", \"requests\": " << p.requests
        << ", \"cpu_us_per_row\": " << p.cpu_us_per_row
        << ", \"achieved_p50_us\": " << p.latency.p50_seconds * 1e6
        << ", \"achieved_p99_us\": " << p.latency.p99_seconds * 1e6
        << ", \"inline_share\": " << p.inline_share
        << ", \"batch_rows_mean\": " << p.batch_rows_mean
        << ", \"predictions_identical\": "
        << (p.predictions_identical ? "true" : "false") << "}"
        << (i + 1 < open_loop.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"burst\": [\n";
  for (size_t i = 0; i < burst.size(); ++i) {
    const BurstPoint& p = burst[i];
    out << "    {\"shards\": " << p.shards << ", \"rows\": " << p.rows
        << ", \"throughput_rows_per_sec\": " << p.throughput
        << ", \"inline_share\": " << p.inline_share
        << ", \"batch_rows_mean\": " << p.batch_rows_mean
        << ", \"predictions_identical\": "
        << (p.predictions_identical ? "true" : "false") << "}"
        << (i + 1 < burst.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"reload\": {\"full_bytes\": " << reload.full_bytes
      << ", \"delta_bytes\": " << reload.delta_bytes
      << ", \"delta_over_full_bytes\": "
      << (reload.full_bytes > 0
              ? static_cast<double>(reload.delta_bytes) / reload.full_bytes
              : 0.0)
      << ",\n             \"reload_ms\": " << reload.reload_seconds * 1e3
      << ", \"delta_apply_ms\": " << reload.delta_apply_seconds * 1e3
      << ", \"predictions_identical\": "
      << (reload.predictions_identical ? "true" : "false") << "}\n";
  out << "}\n";
}

int Main(int argc, char** argv) {
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_serve");

  std::string json_path = "BENCH_serve.json";
  std::string model_cache;
  size_t reps = 5;
  double slo_seconds = 1e-3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::max(1L, std::atol(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      // Reuse a previously trained model — the training phase dominates
      // the benchmark's wall clock when iterating on serving knobs.
      model_cache = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--slo-us=", 9) == 0) {
      slo_seconds = std::max(1.0, std::atof(argv[i] + 9)) * 1e-6;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // Seconds-scale regression gate for tools/check.sh: small model,
      // one rep, two shard counts, hard p99 bound.
      smoke = true;
    }
  }
  if (smoke) reps = 1;

  SyntheticConfig cfg;
  cfg.num_samples = smoke ? 2000 : 12000;
  cfg.seed = 71;
  const Dataset train = GenerateImplicitBias(cfg).value();
  cfg.num_samples = smoke ? 1000 : 4000;
  cfg.seed = 72;
  const Dataset validation = GenerateImplicitBias(cfg).value();
  cfg.num_samples = smoke ? 2000 : 20000;
  cfg.seed = 73;
  const Dataset probe = GenerateImplicitBias(cfg).value();

  const FalccModel model = [&] {
    if (!smoke && !model_cache.empty()) {
      Result<FalccModel> cached = FalccModel::LoadMapped(model_cache);
      if (cached.ok()) {
        std::printf("loaded cached model from %s\n", model_cache.c_str());
        return std::move(cached).value();
      }
    }
    std::printf("training %s model (%zu rows)...\n",
                smoke ? "smoke" : "serving-scale", train.num_rows());
    FalccModel trained =
        FalccModel::Train(train, validation,
                          smoke ? SmokeOptions() : ServingScaleOptions())
            .value();
    if (!smoke && !model_cache.empty()) {
      FALCC_CHECK(trained.SaveToFile(model_cache).ok(),
                  "bench: cannot write model cache");
    }
    return trained;
  }();
  std::printf("  pool=%zu clusters=%zu groups=%zu\n", model.pool().size(),
              model.num_clusters(), model.num_groups());

  std::string model_bytes;
  {
    std::ostringstream out;
    FALCC_CHECK(model.Save(&out).ok(), "bench: model serialization failed");
    model_bytes = out.str();
  }

  const std::span<const double> flat = probe.features();
  const size_t width = probe.num_features();
  ClassifyRequest reference_request;
  reference_request.features = flat;
  reference_request.num_features = width;
  const ClassifyResponse reference =
      model.ClassifyBatch(reference_request).value();

  std::printf("=== Serving benchmark (%zu probe rows, median of %zu, "
              "SLO p99 < %.0f us) ===\n",
              probe.num_rows(), reps, slo_seconds * 1e6);
  // `threads` counts concurrent client threads, not kernel parallelism:
  // the engine's batch kernel keeps the process-wide setting
  // (--threads / FALCC_THREADS), as a deployment would configure it.
  std::vector<ModeResult> results;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    results.push_back(
        RunSingleLoop(model, flat, width, threads, reps, reference));
  }

  bool all_identical = true;
  for (const ModeResult& r : results) {
    std::printf("  %-12s threads=%zu  %.3fs  %.0f rows/s  "
                "p50=%.0fus p95=%.0fus p99=%.0fus  identical=%s\n",
                r.mode.c_str(), r.threads, r.seconds, r.throughput,
                r.latency.p50_seconds * 1e6, r.latency.p95_seconds * 1e6,
                r.latency.p99_seconds * 1e6,
                r.predictions_identical ? "yes" : "NO");
    all_identical = all_identical && r.predictions_identical;
  }

  // --- Closed-loop sweep over shard counts. -------------------------------
  const size_t closed_rows =
      std::min(probe.num_rows(), smoke ? size_t{1000} : size_t{4000});
  const std::vector<size_t> client_sweep =
      smoke ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 4, 16};
  const std::vector<size_t> shard_sweep =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4};

  std::printf("--- closed loop (%zu rows per point) ---\n", closed_rows);
  std::vector<ShardedRow> sharded;
  double one_shard = 0.0;
  bool smoke_p99_ok = true;
  for (size_t shards : shard_sweep) {
    ShardedRow row = RunSharded(model_bytes, flat, width, closed_rows, shards,
                                client_sweep, reps, slo_seconds, reference);
    // Denominator: the one-shard row (the sweep starts there) — its
    // at-SLO throughput, or its best point when it never met the SLO.
    if (sharded.empty()) {
      one_shard = row.throughput_at_slo > 0.0 ? row.throughput_at_slo
                                              : row.offered_load;
    }
    row.ratio_vs_one_shard =
        one_shard > 0.0 ? row.throughput_at_slo / one_shard : 0.0;
    std::printf("  sharded shards=%zu  at-slo=%.0f rows/s (%.2fx one "
                "shard)  best-point p99=%.0fus  identical=%s\n",
                row.shards, row.throughput_at_slo, row.ratio_vs_one_shard,
                row.achieved_p99 * 1e6,
                row.predictions_identical ? "yes" : "NO");
    all_identical = all_identical && row.predictions_identical;
    // The smoke gate: the fleet's best operating point must come within
    // 10x of the configured SLO on whatever hardware runs the check.
    if (row.achieved_p99 > 10.0 * slo_seconds) smoke_p99_ok = false;
    sharded.push_back(std::move(row));
  }

  // --- Open-loop Poisson sweep over shard counts. ------------------------
  const std::vector<double> rate_sweep =
      smoke ? std::vector<double>{5000, 40000}
            : std::vector<double>{5000, 10000, 20000, 40000, 80000};
  const double open_loop_seconds = smoke ? 0.2 : 1.0;
  std::printf("--- open loop (Poisson, %.1f s per point) ---\n",
              open_loop_seconds);
  std::vector<OpenLoopPoint> open_loop;
  for (size_t shards : shard_sweep) {
    for (double rate : rate_sweep) {
      OpenLoopPoint point =
          RunOpenLoopPoint(model_bytes, flat, width, shards, rate,
                           open_loop_seconds, reference);
      std::printf("  open_loop shards=%zu  %6.0f req/s  cpu=%.2fus/row  "
                  "p99=%.0fus  inline=%.2f  batch=%.2f  identical=%s\n",
                  point.shards, point.rate, point.cpu_us_per_row,
                  point.latency.p99_seconds * 1e6, point.inline_share,
                  point.batch_rows_mean,
                  point.predictions_identical ? "yes" : "NO");
      all_identical = all_identical && point.predictions_identical;
      open_loop.push_back(point);
    }
  }

  // --- Burst: one thread submits waves, then waits. ----------------------
  std::printf("--- burst (%zu rows, waves of %zu) ---\n", closed_rows,
              kBurstWave);
  std::vector<BurstPoint> burst;
  for (size_t shards : shard_sweep) {
    BurstPoint point = RunBurstPoint(model_bytes, flat, width, closed_rows,
                                     shards, reps, reference);
    std::printf("  burst shards=%zu  %.0f rows/s  inline=%.2f  batch=%.2f  "
                "identical=%s\n",
                point.shards, point.throughput, point.inline_share,
                point.batch_rows_mean,
                point.predictions_identical ? "yes" : "NO");
    all_identical = all_identical && point.predictions_identical;
    burst.push_back(point);
  }

  // --- Snapshot distribution: full reload vs delta apply. ---------------
  const ReloadResult reload =
      RunReloadBench(model, model_bytes, reps, flat, width, reference);
  std::printf("--- snapshot distribution ---\n"
              "  full=%zu bytes (%.2f ms reload)  "
              "delta=%zu bytes (%.3f ms apply, %.4fx of full)  "
              "identical=%s\n",
              reload.full_bytes, reload.reload_seconds * 1e3,
              reload.delta_bytes,
              reload.delta_apply_seconds * 1e3,
              static_cast<double>(reload.delta_bytes) / reload.full_bytes,
              reload.predictions_identical ? "yes" : "NO");
  all_identical = all_identical && reload.predictions_identical;

  WriteServeJson(json_path, train.num_rows(), probe.num_rows(), closed_rows,
                 model, reps, slo_seconds, results, sharded, open_loop, burst,
                 reload);
  std::printf("  -> %s\n", json_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr, "ERROR: serving decisions differ from the "
                         "ClassifyBatch reference\n");
    return 1;
  }
  if (smoke && !smoke_p99_ok) {
    std::fprintf(stderr, "ERROR: sharded achieved p99 exceeds 10x the "
                         "configured SLO (%.0f us)\n",
                 slo_seconds * 1e6);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
