// Spans recorded around the benchmark's calls into the library, and the
// self-time arithmetic that turns them into per-layer shares.
//
// A span has a layer name, a start and an end (steady-clock ns), the
// request it belongs to, and the name of its parent span within that
// request (none for a root). Spans of one request may be recorded by
// different threads — the pacing thread records the submit, a waiter
// records the wait — so the parent link is by name inside the request,
// not by pointer. Each thread appends to its own SpanBuffer; nothing is
// shared while the run is being measured, and the buffers are merged
// and written out when it ends.
//
// A span's self time is its duration minus the part of its interval its
// children cover. Over all roots of one name, the roots' self time is
// the unattributed end-to-end time: what no layer's span accounts for.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"  // NowNs: spans share the schedule's clock

namespace e2e {

struct Span {
  const char* name = "";      ///< layer; a string literal
  const char* parent = nullptr;  ///< parent span's name; nullptr = root
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Recording is a no-op when disabled, so the
/// untraced run executes the same code with nothing kept.
class SpanBuffer {
 public:
  SpanBuffer(bool enabled, size_t reserve) : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
  }

  bool enabled() const { return enabled_; }

  void Record(const char* name, const char* parent, uint64_t request,
              int64_t start_ns, int64_t end_ns) {
    if (enabled_) spans_.push_back({name, parent, request, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of one layer summed over every request of a breakdown.
struct LayerTime {
  std::string layer;
  size_t spans = 0;
  double self_ns = 0.0;
};

/// Where the time of every root span named `root` went.
struct Breakdown {
  std::string root;
  size_t requests = 0;        ///< roots of that name
  double end_to_end_ns = 0.0; ///< sum of root durations
  double unattributed_ns = 0.0;  ///< sum of root self times
  std::vector<LayerTime> layers;  ///< descendants, by first appearance

  /// Self time of `layer` as a share of the end-to-end time (0 if the
  /// layer recorded nothing).
  double Share(const std::string& layer) const;
  double UnattributedShare() const {
    return end_to_end_ns > 0.0 ? unattributed_ns / end_to_end_ns : 0.0;
  }
};

/// Builds every request's span tree and sums self times under the roots
/// named `root`. A child whose parent name has no span in its request is
/// ignored.
Breakdown SelfTimes(const std::vector<Span>& spans, const std::string& root);

/// Merges per-thread buffers into one list.
std::vector<Span> Merge(const std::vector<const SpanBuffer*>& buffers);

/// Writes spans as tab-separated `request name parent start_ns end_ns`
/// lines (parent "-" for roots). Returns false on an I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
