// Seeded input schedules for the end-to-end benchmark: open-loop arrival
// times, the probe row each arrival sends, and drift events. Everything
// here is a pure function of its seed, so two runs with one seed offer
// the program exactly the same traffic.

#ifndef E2EBENCH_SCHEDULE_H_
#define E2EBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// SplitMix64: a tiny, well-mixed generator for schedule draws.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed for `stream` from a run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// One open-loop request: when it is due (seconds after the schedule
/// starts) and which probe row it sends.
struct Arrival {
  double due = 0.0;
  uint32_t row = 0;
};

/// Poisson arrivals at `rate` per second over [0, seconds), each sending
/// a uniformly drawn row of a `num_rows`-row probe set.
std::vector<Arrival> PoissonArrivals(uint64_t seed, double rate,
                                     double seconds, size_t num_rows);

/// One drift event: from `onset` (seconds after the schedule starts)
/// the truth of every decision on `cluster` flips to 1 − prediction
/// until that cluster's refresh installs.
struct DriftEvent {
  double onset = 0.0;
  size_t cluster = 0;
};

/// `count` events at onsets first, first + gap, ...; each on a distinct
/// cluster drawn from `candidates` (reused only once all were drawn).
std::vector<DriftEvent> DriftSchedule(uint64_t seed, size_t count,
                                      double first, double gap,
                                      const std::vector<size_t>& candidates);

/// Nanoseconds on the steady clock: the time base of schedules and spans.
int64_t NowNs();

/// CPU time (ns) consumed so far by the whole process / the calling
/// thread. The kernel does not charge a task for time its virtual CPU
/// was taken away by the host, so on a shared machine these move far
/// less than wall-clock times do.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();

/// Waits until `due_ns`: sleeps most of the gap and spins the rest, since
/// a sleep overshoots by tens of µs, which would show as lateness.
void PaceUntil(int64_t due_ns);

/// Open-loop pacing on the calling thread: for each request in order,
/// stops if `keep_going(i)` is false, else waits until `due_ns[i]`,
/// records the send time in (*send_start_ns)[i] and calls `send(i)`. A
/// slow `send` makes later requests go out late; their latency still
/// counts from `due_ns`. Returns how many requests were sent.
template <typename KeepGoing, typename Send>
size_t RunOpenLoop(const std::vector<int64_t>& due_ns, KeepGoing keep_going,
                   Send send, std::vector<int64_t>* send_start_ns) {
  size_t i = 0;
  for (; i < due_ns.size() && keep_going(i); ++i) {
    PaceUntil(due_ns[i]);
    (*send_start_ns)[i] = NowNs();
    send(i);
  }
  return i;
}

}  // namespace e2e

#endif  // E2EBENCH_SCHEDULE_H_
