// The benchmark's metrics (name, unit, end-to-end or per-layer) and the
// JSON lines a run prints.

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;  ///< printed by traced runs; end-to-end otherwise
};

/// Every metric the benchmark prints; BENCHMARK.json lists the same set.
const std::vector<MetricSpec>& AllMetrics();

/// The last line of a run: `{"correct", "attempted", "failed",
/// "metrics"}` with every metric of the run's kind, each with its unit.
/// A metric missing from `values`, or not finite, is an error returned
/// in `missing` (and the line is still produced, without it).
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       bool per_layer,
                       const std::map<std::string, double>& values,
                       std::vector<std::string>* missing);

/// `{"header": {...}}` from ordered key/value pairs; values that parse
/// as numbers are written bare, everything else quoted.
std::string HeaderLine(
    const std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace e2e

#endif  // E2EBENCH_REPORT_H_
