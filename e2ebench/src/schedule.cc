#include "schedule.h"

#include <time.h>

#include <chrono>
#include <cmath>
#include <thread>

namespace e2e {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t SplitMix64::Below(size_t n) { return static_cast<size_t>(Next() % n); }

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix64 mix(seed * 0x100000001b3ULL + stream);
  return mix.Next();
}

std::vector<Arrival> PoissonArrivals(uint64_t seed, double rate,
                                     double seconds, size_t num_rows) {
  SplitMix64 rng(seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Exponential gaps; 1 − U keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    arrivals.push_back({t, static_cast<uint32_t>(rng.Below(num_rows))});
  }
  return arrivals;
}

std::vector<DriftEvent> DriftSchedule(uint64_t seed, size_t count,
                                      double first, double gap,
                                      const std::vector<size_t>& candidates) {
  std::vector<DriftEvent> events;
  if (candidates.empty()) return events;
  SplitMix64 rng(seed);
  std::vector<size_t> bag;
  for (size_t i = 0; i < count; ++i) {
    if (bag.empty()) bag = candidates;
    const size_t pick = rng.Below(bag.size());
    events.push_back({first + gap * static_cast<double>(i), bag[pick]});
    bag[pick] = bag.back();
    bag.pop_back();
  }
  return events;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int64_t CpuClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t ProcessCpuNs() { return CpuClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return CpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

void PaceUntil(int64_t due_ns) {
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

}  // namespace e2e
