#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredNs(std::vector<std::pair<int64_t, int64_t>>* intervals,
                 int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  double covered = 0.0;
  int64_t cursor = lo;
  for (const auto& [start, end] : *intervals) {
    const int64_t s = std::max(start, cursor);
    const int64_t e = std::min(end, hi);
    if (e > s) {
      covered += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

double Breakdown::Share(const std::string& layer) const {
  if (end_to_end_ns <= 0.0) return 0.0;
  for (const LayerTime& l : layers) {
    if (l.layer == layer) return l.self_ns / end_to_end_ns;
  }
  return 0.0;
}

Breakdown SelfTimes(const std::vector<Span>& spans, const std::string& root) {
  Breakdown out;
  out.root = root;
  std::unordered_map<uint64_t, std::vector<size_t>> by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_request[spans[i].request].push_back(i);
  }
  std::unordered_map<std::string, size_t> layer_index;

  // Requests in first-appearance order keep the layer order stable.
  std::vector<uint64_t> order;
  {
    std::unordered_map<uint64_t, bool> seen;
    for (const Span& s : spans) {
      if (!seen[s.request]) {
        seen[s.request] = true;
        order.push_back(s.request);
      }
    }
  }

  for (uint64_t request : order) {
    const std::vector<size_t>& members = by_request[request];
    // Parent link by name within the request; first match wins.
    std::vector<std::vector<size_t>> children(members.size());
    std::vector<bool> linked(members.size(), false);
    for (size_t m = 0; m < members.size(); ++m) {
      const Span& s = spans[members[m]];
      if (s.parent == nullptr) continue;
      for (size_t p = 0; p < members.size(); ++p) {
        if (p != m && std::strcmp(spans[members[p]].name, s.parent) == 0) {
          children[p].push_back(m);
          linked[m] = true;
          break;
        }
      }
    }
    auto self_ns = [&](size_t m) {
      const Span& s = spans[members[m]];
      std::vector<std::pair<int64_t, int64_t>> covered;
      for (size_t c : children[m]) {
        covered.emplace_back(spans[members[c]].start_ns,
                             spans[members[c]].end_ns);
      }
      return static_cast<double>(s.end_ns - s.start_ns) -
             CoveredNs(&covered, s.start_ns, s.end_ns);
    };
    for (size_t m = 0; m < members.size(); ++m) {
      const Span& s = spans[members[m]];
      if (s.parent != nullptr || root != s.name) continue;
      ++out.requests;
      out.end_to_end_ns += static_cast<double>(s.end_ns - s.start_ns);
      out.unattributed_ns += self_ns(m);
      // Every descendant's self time goes to its layer.
      std::vector<size_t> stack(children[m].begin(), children[m].end());
      while (!stack.empty()) {
        const size_t d = stack.back();
        stack.pop_back();
        const std::string name = spans[members[d]].name;
        auto [it, inserted] = layer_index.emplace(name, out.layers.size());
        if (inserted) out.layers.push_back({name, 0, 0.0});
        out.layers[it->second].spans += 1;
        out.layers[it->second].self_ns += self_ns(d);
        stack.insert(stack.end(), children[d].begin(), children[d].end());
      }
    }
  }
  return out;
}

std::vector<Span> Merge(const std::vector<const SpanBuffer*>& buffers) {
  std::vector<Span> all;
  size_t total = 0;
  for (const SpanBuffer* b : buffers) total += b->spans().size();
  all.reserve(total);
  for (const SpanBuffer* b : buffers) {
    all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  return all;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "request\tname\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%llu\t%s\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.request), s.name,
                 s.parent != nullptr ? s.parent : "-",
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
