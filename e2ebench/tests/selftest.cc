// Self-tests of the benchmark harness (no FALCC library involved):
//
//   e2e_selftest path/to/BENCHMARK.json
//
// Checks that schedules repeat from their seed, that open-loop latency
// counts from the due time (a stall raises later requests' latency and
// the generator's lateness), the span self-time arithmetic, feedback
// attribution, and that every metric BENCHMARK.json names is printed
// with its unit.

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "attribution.h"
#include "report.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void SameSeedSameSchedules() {
  const auto a = e2e::PoissonArrivals(7, 1000.0, 2.0, 500);
  const auto b = e2e::PoissonArrivals(7, 1000.0, 2.0, 500);
  const auto c = e2e::PoissonArrivals(8, 1000.0, 2.0, 500);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due == b[i].due && a[i].row == b[i].row;
  }
  Expect(same, "same seed gives the same arrivals");
  Expect(a.size() != c.size() || a[0].due != c[0].due,
         "another seed gives other arrivals");
  // ~rate × seconds arrivals, increasing due times inside the window.
  Expect(a.size() > 1800 && a.size() < 2200, "Poisson count near 2000");
  bool ordered = true;
  for (size_t i = 1; i < a.size(); ++i) ordered = ordered && a[i].due > a[i - 1].due;
  Expect(ordered && a.back().due < 2.0, "arrivals ordered within window");

  const std::vector<size_t> candidates = {3, 5, 8, 13, 21};
  const auto d1 = e2e::DriftSchedule(9, 4, 0.5, 1.0, candidates);
  const auto d2 = e2e::DriftSchedule(9, 4, 0.5, 1.0, candidates);
  bool drift_same = d1.size() == 4 && d2.size() == 4;
  for (size_t i = 0; drift_same && i < d1.size(); ++i) {
    drift_same = d1[i].onset == d2[i].onset && d1[i].cluster == d2[i].cluster;
  }
  Expect(drift_same, "same seed gives the same drift schedule");
  std::map<size_t, int> seen;
  for (const auto& e : d1) ++seen[e.cluster];
  Expect(seen.size() == 4, "drift events use distinct clusters");
  Expect(d1[2].onset == 2.5, "drift onsets follow the gap");
}

/// Runs a synchronous open loop against a service taking `service_us`
/// per request, with request `stall_at` taking `stall_us` instead.
/// Returns latencies from due time and generator lateness, in µs.
void OpenLoop(size_t stall_at, double stall_us, std::vector<double>* latency,
              std::vector<double>* late) {
  constexpr size_t kRequests = 400;
  constexpr int64_t kGapNs = 100'000;  // 10k requests/s
  constexpr int64_t kServiceNs = 20'000;
  const int64_t start = e2e::NowNs() + 1'000'000;
  std::vector<int64_t> due(kRequests);
  for (size_t i = 0; i < kRequests; ++i) due[i] = start + i * kGapNs;
  std::vector<int64_t> sent(kRequests), done(kRequests);
  e2e::RunOpenLoop(
      due, [](size_t) { return true; },
      [&](size_t i) {
        const int64_t busy =
            i == stall_at ? static_cast<int64_t>(stall_us * 1e3) : kServiceNs;
        const int64_t until = e2e::NowNs() + busy;
        while (e2e::NowNs() < until) {
        }
        done[i] = e2e::NowNs();
      },
      &sent);
  for (size_t i = 0; i < kRequests; ++i) {
    latency->push_back((done[i] - due[i]) * 1e-3);
    late->push_back((sent[i] - due[i]) * 1e-3);
  }
}

void LatencyCountsFromDueTime() {
  std::vector<double> base_latency, base_late, stall_latency, stall_late;
  OpenLoop(SIZE_MAX, 0.0, &base_latency, &base_late);
  OpenLoop(100, 20'000.0, &stall_latency, &stall_late);  // 20 ms stall
  // The stall delays the ~200 requests due during it: each waits for it.
  Expect(stall_latency[150] > base_latency[150] + 5'000.0,
         "a request due during the stall counts the wait");
  Expect(e2e::QuantileOf(stall_late, 0.99) >
             e2e::QuantileOf(base_late, 0.99) + 5'000.0,
         "gen.late p99 shows the stall");
  Expect(e2e::QuantileOf(stall_latency, 0.99) >
             e2e::QuantileOf(base_latency, 0.99) + 5'000.0,
         "decide p99 shows the stall");
  Expect(stall_latency[399] < 5'000.0, "the loop catches up after the stall");
}

void SelfTimeArithmetic() {
  e2e::SpanBuffer spans(true, 16);
  // Request 1: root [0,100]; A [10,40] with child C [15,25]; B [50,70].
  spans.Record("root", nullptr, 1, 0, 100);
  spans.Record("A", "root", 1, 10, 40);
  spans.Record("C", "A", 1, 15, 25);
  spans.Record("B", "root", 1, 50, 70);
  // Request 2: root [200,260]; A [190,230] starts before its parent and
  // overlaps B [220,240]; coverage is the union clipped to the root.
  spans.Record("root", nullptr, 2, 200, 260);
  spans.Record("A", "root", 2, 190, 230);
  spans.Record("B", "root", 2, 220, 240);
  // An unrelated root in request 2 and an orphan are ignored.
  spans.Record("other", nullptr, 2, 0, 1000);
  spans.Record("D", "missing", 2, 200, 210);

  const e2e::Breakdown b = e2e::SelfTimes(spans.spans(), "root");
  Expect(b.requests == 2, "two roots");
  Expect(b.end_to_end_ns == 160.0, "end-to-end is the roots' durations");
  // Root self: 100 − (30 + 20) = 50; 60 − |[200,240]| = 20.
  Expect(b.unattributed_ns == 70.0, "unattributed is the roots' self time");
  std::map<std::string, double> self;
  for (const auto& l : b.layers) self[l.layer] = l.self_ns;
  Expect(self["A"] == (30.0 - 10.0) + 40.0, "A self time");
  Expect(self["B"] == 20.0 + 20.0, "B self time");
  Expect(self["C"] == 10.0, "C self time");
  Expect(self.count("D") == 0, "orphan span ignored");
  Expect(b.Share("C") == 10.0 / 160.0, "share of the end-to-end time");
  // Request 1 has no overlap: self times add up to its root exactly.
  const e2e::Breakdown one = e2e::SelfTimes(
      std::vector<e2e::Span>(spans.spans().begin(), spans.spans().begin() + 4),
      "root");
  double sum = one.unattributed_ns;
  for (const auto& l : one.layers) sum += l.self_ns;
  Expect(sum == one.end_to_end_ns, "self times partition a tree");
}

void FeedbackAttribution() {
  using e2e::Decided;
  // Shard 0 request a1 [send 0, done 12], shard 1 b1 [5, 30], shard 0
  // a2 [20, 40]. Possible id orders: a1 b1 a2, a1 a2 b1, b1 a1 a2 — no
  // position holds one request in all of them, even where the truths
  // agree, so nothing is labeled: withholding must not depend on labels.
  std::vector<int> truth = e2e::ResolvePeriod(
      {{0, 0, 12, 1}, {1, 5, 30, 1}, {0, 20, 40, 0}});
  Expect(truth == std::vector<int>({-1, -1, -1}), "ambiguous period");
  // a1 [0, 100] spans b1 [10, 20] and b2 [30, 40]; a2 [50, 60] follows
  // both b's, so it is last in every order.
  truth = e2e::ResolvePeriod(
      {{0, 0, 100, 0}, {1, 10, 20, 1}, {1, 30, 40, 0}, {0, 50, 60, 1}});
  Expect(truth == std::vector<int>({-1, -1, -1, 1}), "pinned position");
  // b1 [5, 8] returns before a2 [10, 30] is sent, a1 [0, 9] spans it:
  // orders a1 b1 a2 and b1 a1 a2 — only a2's position is certain.
  truth = e2e::ResolvePeriod({{0, 0, 9, 1}, {1, 5, 8, 1}, {0, 10, 30, 0}});
  Expect(truth == std::vector<int>({-1, -1, 0}), "overlap resolved later");
  truth = e2e::ResolvePeriod({{1, 0, 30, 1}, {1, 10, 40, 0}});
  Expect(truth == std::vector<int>({1, 0}), "single shard keeps its order");

  // The stream splits at idle gaps: a request sent after every earlier
  // one returned starts a new period with known ids.
  e2e::FeedbackAttributor attributor;
  e2e::FeedbackAttributor::Labels labels;
  attributor.Add({0, 0, 10, 1}, &labels);
  attributor.Add({1, 20, 50, 0}, &labels);  // closes {0}
  attributor.Add({0, 30, 40, 1}, &labels);  // overlaps: same period
  attributor.NextSentAt(60, &labels);       // closes {1, 2}
  attributor.Close(&labels);
  const e2e::FeedbackAttributor::Labels want = {{0, 1}};
  Expect(labels == want, "periods close at idle gaps");
  Expect(attributor.withheld() == 2, "ambiguous positions withheld");
}

void EveryMetricPrintedWithUnit(const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  Expect(static_cast<bool>(in), "read " + benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const size_t e2e_at = json.find("\"end_to_end\"");
  const size_t layer_at = json.find("\"per_layer\"");
  Expect(e2e_at != std::string::npos && layer_at != std::string::npos,
         "BENCHMARK.json has end_to_end and per_layer");
  if (e2e_at == std::string::npos || layer_at == std::string::npos) return;

  const std::regex metric(
      "\\{\\s*\"name\":\\s*\"([^\"]+)\",\\s*\"unit\":\\s*\"([^\"]+)\"");
  auto listed = [&](size_t from) {
    std::map<std::string, std::string> out;
    const size_t end = json.find(']', from);
    const std::string section = json.substr(from, end - from);
    for (std::sregex_iterator it(section.begin(), section.end(), metric), last;
         it != last; ++it) {
      out[(*it)[1]] = (*it)[2];
    }
    return out;
  };
  for (bool per_layer : {false, true}) {
    const auto want = listed(per_layer ? layer_at : e2e_at);
    std::map<std::string, double> values;
    size_t harness = 0;
    for (const e2e::MetricSpec& m : e2e::AllMetrics()) {
      if (m.per_layer != per_layer) continue;
      ++harness;
      values[m.name] = 1.5;
      Expect(want.count(m.name) == 1,
             std::string("BENCHMARK.json lists ") + m.name);
    }
    Expect(want.size() == harness, "same metric count as the harness");
    std::vector<std::string> missing;
    const std::string line =
        e2e::ResultLine(true, 1, 0, per_layer, values, &missing);
    Expect(missing.empty(), "all metrics have values");
    for (const auto& [name, unit] : want) {
      const std::string printed = "\"" + name + "\": {\"value\": 1.5, \"unit\": \"" +
                                  unit + "\"}";
      Expect(line.find(printed) != std::string::npos,
             "printed with its unit: " + name);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: e2e_selftest BENCHMARK.json\n");
    return 2;
  }
  SameSeedSameSchedules();
  LatencyCountsFromDueTime();
  SelfTimeArithmetic();
  FeedbackAttribution();
  EveryMetricPrintedWithUnit(argv[1]);
  if (failures == 0) std::printf("e2e_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
