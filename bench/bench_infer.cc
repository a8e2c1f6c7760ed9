// Compiled-kernel inference benchmark: 16-byte flat-node traversal
// (ml/compiled_ensemble.h) vs the interpreted per-model prediction path,
// single thread, median of --reps passes over a --rows probe set.
//
// Cases:
//
//  * Model-level — CompiledEnsemble vs Classifier::PredictProbaBatch for
//    the tree families the pool trains: deep and shallow AdaBoost, a
//    bagged random forest, and a single CART. This is the kernel itself,
//    no routing around it.
//  * End-to-end — FalccModel::ClassifyBatch on a trained FALCC model:
//    validation, transform, cluster matching and the pool's kernels, the
//    one batch path there is. Timed alone; its decisions are checked
//    against the sequential Classify / ClassifyProba reference.
//  * Serving-shaped — the serving-scale model (24 AdaBoost ensembles of
//    30–60 depth-8/9 trees, k = 32) called with one row per ClassifyBatch,
//    --rows calls on probe rows drawn at random (so random clusters and
//    pool models), the shape of open-loop serving. Besides ns/row it reports
//    the roofline inputs: the pool's kernel table bytes and the mean
//    number of distinct 64-byte lines one row's kernel walk touches.
//  * Kernel variants — every PredictKernels() variant (baseline, then
//    the SIMD walks the CPU runs) on the serving model, timed in
//    alternation within each rep so host drift hits them alike, and
//    reported as ns/row plus the median per-rep speedup over baseline:
//    `pool_walk` walks the segments stage 3 of ClassifyBatch forms from
//    4096-row batches (the probe rows grouped by the pool model that
//    fires).
//  * Streaming read — one sequential pass over all of the serving pool's
//    node and leaf tables, the bandwidth ceiling the walks are measured
//    against: a walk far above its streaming floor is bound by latency.
//  * Cluster match — the serving model's online centroid match (k = 32)
//    over the transformed probe rows: CentroidTable::Nearest, the
//    serving path, vs the NearestCentroid reference scan, in ns/query.
//
// Every timed pass re-checks bit-identity: compiled probabilities of
// every kernel variant must equal the interpreted ones exactly,
// end-to-end decisions (label,
// probability, cluster, group, model) must equal the sequential
// Classify / ClassifyProba / MatchCluster / GroupOf reference, and the
// table's cluster must equal the reference's for every probe row; the
// binary exits non-zero on any divergence. Results go to
// BENCH_infer.json.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/kmeans.h"
#include "core/falcc.h"
#include "datagen/synthetic.h"
#include "ml/adaboost.h"
#include "ml/compiled_ensemble.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "util/timer.h"

namespace falcc {
namespace {

struct CaseResult {
  std::string name;
  size_t num_trees = 0;
  size_t num_nodes = 0;
  size_t table_bytes = 0;          ///< node + leaf tables (reported for
                                   ///< the serving case)
  double cache_lines_per_row = 0;  ///< serving case only
  /// Model-level cases only: the interpreted reference's time.
  double interpreted_ns_per_row = 0.0;
  /// The timed path: the kernel (model-level) or ClassifyBatch.
  double ns_per_row = 0.0;
  double speedup = 0.0;  ///< model-level: interpreted / compiled
  bool decisions_identical = true;
  bool end_to_end = false;
};

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

double MedianSeconds(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Times `fn` (which fills one probe pass) `reps` times after a warmup
/// pass; returns median ns/row.
template <typename Fn>
double MedianNsPerRow(size_t rows, size_t reps, const Fn& fn) {
  fn();  // warmup: page in the tables, size the buffers
  std::vector<double> times(reps);
  for (size_t rep = 0; rep < reps; ++rep) {
    Timer wall;
    fn();
    times[rep] = wall.ElapsedSeconds();
  }
  return MedianSeconds(std::move(times)) * 1e9 / static_cast<double>(rows);
}

/// Whether two probability vectors are equal bit for bit.
bool SameBits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Runs each of `passes` once per rep after one warmup pass each,
/// rotating the order every rep so slow drift of the host lands on every
/// pass alike. Returns seconds[pass][rep].
std::vector<std::vector<double>> TimeAlternating(
    const std::vector<std::function<void()>>& passes, size_t reps) {
  for (const auto& pass : passes) pass();
  std::vector<std::vector<double>> seconds(passes.size(),
                                           std::vector<double>(reps));
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < passes.size(); ++k) {
      const size_t p = (k + rep) % passes.size();
      Timer wall;
      passes[p]();
      seconds[p][rep] = wall.ElapsedSeconds();
    }
  }
  return seconds;
}

/// One kernel variant's timing in an alternating comparison.
struct VariantResult {
  std::string name;
  double ns_per_row = 0.0;  ///< median over reps
  /// Median over reps of (baseline seconds / this variant's seconds),
  /// both from the same rep.
  double speedup_vs_baseline = 1.0;
  bool identical = true;  ///< bit-equal to the interpreted models
};

/// The pool_walk case: every PredictKernels() variant, in alternation.
struct PoolWalkResult {
  size_t rows = 0;
  std::vector<VariantResult> variants;
  bool identical() const {
    for (const VariantResult& v : variants) {
      if (!v.identical) return false;
    }
    return true;
  }
};

CaseResult RunModelCase(const std::string& name, const Classifier& model,
                        const Dataset& probe, size_t reps) {
  CaseResult result;
  result.name = name;

  const std::vector<size_t> rows = AllRows(probe.num_rows());
  std::vector<double> interpreted(rows.size());
  std::vector<double> compiled(rows.size());

  result.interpreted_ns_per_row = MedianNsPerRow(
      rows.size(), reps,
      [&] { model.PredictProbaBatch(probe, rows, interpreted); });

  const Result<CompiledEnsemble> kernel = CompiledEnsemble::Compile(model);
  FALCC_CHECK(kernel.ok(), "bench_infer: compile failed");
  result.num_trees = kernel.value().num_trees();
  result.num_nodes = kernel.value().num_nodes();
  result.ns_per_row = MedianNsPerRow(rows.size(), reps, [&] {
    kernel.value().PredictProbaBatch(probe.features(), probe.num_features(),
                                     rows, compiled);
  });
  result.speedup = result.interpreted_ns_per_row / result.ns_per_row;
  result.decisions_identical = SameBits(interpreted, compiled);
  for (const PredictKernel& variant : PredictKernels()) {
    variant.fn(kernel.value().parts(), probe.features(), probe.num_features(),
               rows, compiled);
    if (!SameBits(interpreted, compiled)) {
      std::fprintf(stderr, "bench_infer: %s variant %s diverged\n",
                   name.c_str(), variant.name);
      result.decisions_identical = false;
    }
  }
  return result;
}

/// Training config for the end-to-end case: a pool of deep AdaBoost
/// ensembles over enough local regions that per-cluster fusion matters.
FalccOptions EndToEndOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 8;
  opt.trainer.pool_size = 8;
  opt.trainer.estimator_grid = {20, 30};
  opt.trainer.depth_grid = {6, 8};
  opt.trainer.accuracy_tolerance = 1.0;  // keep every candidate
  return opt;
}

/// The sequential single-sample reference for one row: what every
/// ClassifyBatch decision must equal field by field.
SampleDecision SequentialDecision(const FalccModel& model,
                                  std::span<const double> row) {
  SampleDecision d;
  d.probability = model.ClassifyProba(row);
  d.label = model.Classify(row);
  d.cluster = model.MatchCluster(row);
  d.group = model.GroupOf(row).value();
  d.model = model.selected_combinations()[d.cluster][d.group];
  return d;
}

bool SameDecision(const SampleDecision& a, const SampleDecision& b) {
  return a.label == b.label && a.probability == b.probability &&
         a.cluster == b.cluster && a.group == b.group && a.model == b.model;
}

/// Adds the pool's kernel tree, node and table-byte counts to `result`.
void CountKernels(const ModelPool& pool, CaseResult* result) {
  for (size_t m = 0; m < pool.size(); ++m) {
    const CompiledEnsemble* kernel = pool.kernel(m);
    if (kernel == nullptr) continue;
    result->num_trees += kernel->num_trees();
    result->num_nodes += kernel->num_nodes();
    result->table_bytes += kernel->table_bytes();
  }
}

CaseResult RunEndToEnd(const FalccModel& model, const Dataset& probe,
                       size_t reps) {
  CaseResult result;
  result.name = "falcc_classify_batch";
  result.end_to_end = true;
  const size_t rows = probe.num_rows();
  const ClassifyRequest request{probe.features(), probe.num_features()};

  CountKernels(model.pool(), &result);
  ClassifyResponse response;
  result.ns_per_row = MedianNsPerRow(rows, reps, [&] {
    Result<ClassifyResponse> r = model.ClassifyBatch(request);
    FALCC_CHECK(r.ok(), "bench_infer: ClassifyBatch failed");
    response = std::move(r).value();
  });
  for (size_t i = 0; i < rows; ++i) {
    if (!SameDecision(response.decisions[i],
                      SequentialDecision(model, probe.Row(i)))) {
      result.decisions_identical = false;
    }
  }
  return result;
}

/// The serving-scale model of bench_serve and the end-to-end benchmark:
/// 24 AdaBoost ensembles (30–60 trees of depth 8–9), k = 32.
FalccOptions ServingOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.fixed_k = 32;
  opt.trainer.pool_size = 24;
  opt.trainer.estimator_grid = {30, 35, 40, 45, 50, 60};
  opt.trainer.depth_grid = {8, 9};
  opt.trainer.accuracy_tolerance = 1.0;
  return opt;
}

/// Distinct 64-byte lines of node and leaf tables one row's walk of
/// `kernel` reads — the same steps as the kernel's one-row walk.
void CountLines(const CompiledEnsemble& kernel, const double* row,
                std::vector<uintptr_t>* lines) {
  const CompiledEnsemble::Parts& parts = kernel.parts();
  for (const TreeRef& tree : parts.trees) {
    uint32_t i = tree.root;
    for (uint32_t step = 0; step < tree.steps; ++step) {
      const FlatNode& node = parts.nodes[i];
      lines->push_back(reinterpret_cast<uintptr_t>(&node) / 64);
      const uint32_t next =
          node.left + static_cast<uint32_t>(row[node.feature] > node.threshold);
      if (next == i) break;
      i = next;
    }
    lines->push_back(reinterpret_cast<uintptr_t>(&parts.leaf_proba[i]) / 64);
  }
}

/// One row per ClassifyBatch call over as many calls as `probe` has
/// rows, each on a probe row drawn at random (fixed seed).
CaseResult RunServing(const FalccModel& model, const Dataset& probe,
                      size_t reps) {
  CaseResult result;
  result.name = "serving_one_row";
  result.end_to_end = true;
  const size_t width = probe.num_features();
  const size_t calls = probe.num_rows();
  std::vector<size_t> picks(calls);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t& pick : picks) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    pick = static_cast<size_t>(state % probe.num_rows());
  }
  ClassifyScratch scratch;
  auto run = [&](std::vector<SampleDecision>* out) {
    out->resize(calls);
    for (size_t c = 0; c < calls; ++c) {
      const ClassifyRequest request{probe.Row(picks[c]), width};
      Result<ClassifyResponse> r = model.ClassifyBatch(request, &scratch);
      FALCC_CHECK(r.ok(), "bench_infer: one-row ClassifyBatch failed");
      (*out)[c] = r.value().decisions[0];
    }
  };
  CountKernels(model.pool(), &result);
  std::vector<SampleDecision> served;
  result.ns_per_row = MedianNsPerRow(calls, reps, [&] { run(&served); });

  size_t lines_total = 0;
  std::vector<uintptr_t> lines;
  for (size_t c = 0; c < calls; ++c) {
    const SampleDecision& d = served[c];
    if (!SameDecision(d, SequentialDecision(model, probe.Row(picks[c])))) {
      result.decisions_identical = false;
    }
    const CompiledEnsemble* kernel = model.pool().kernel(d.model);
    if (kernel == nullptr) continue;
    lines.clear();
    CountLines(*kernel, probe.Row(picks[c]).data(), &lines);
    std::sort(lines.begin(), lines.end());
    lines_total += static_cast<size_t>(
        std::unique(lines.begin(), lines.end()) - lines.begin());
  }
  result.cache_lines_per_row =
      static_cast<double>(lines_total) / static_cast<double>(calls);
  return result;
}

/// Every kernel variant over the segments stage 3 of ClassifyBatch
/// forms when `probe` arrives in 4096-row batches: each batch's rows
/// grouped by the pool model that fires, ascending within a segment.
/// Also returns, in `table_bytes_walked`, the summed table bytes of the
/// model each segment walks — what a walk would read if it streamed its
/// model's whole table once per segment.
PoolWalkResult RunPoolWalk(const FalccModel& model, const Dataset& probe,
                           size_t reps, size_t* table_bytes_walked) {
  constexpr size_t kBatchRows = 4096;
  const ModelPool& pool = model.pool();
  const size_t n = probe.num_rows();
  const size_t width = probe.num_features();
  std::vector<size_t> fires(n);
  for (size_t i = 0; i < n; ++i) {
    const auto row = probe.Row(i);
    fires[i] = model.selected_combinations()[model.MatchCluster(row)]
                                            [model.GroupOf(row).value()];
  }
  struct Segment {
    size_t model, begin, end;
  };
  std::vector<Segment> segments;
  std::vector<size_t> rows;
  rows.reserve(n);
  *table_bytes_walked = 0;
  for (size_t batch = 0; batch < n; batch += kBatchRows) {
    const size_t batch_end = std::min(n, batch + kBatchRows);
    for (size_t m = 0; m < pool.size(); ++m) {
      const size_t begin = rows.size();
      for (size_t i = batch; i < batch_end; ++i) {
        if (fires[i] == m) rows.push_back(i);
      }
      if (rows.size() == begin) continue;
      segments.push_back({m, begin, rows.size()});
      if (const CompiledEnsemble* kernel = pool.kernel(m)) {
        *table_bytes_walked += kernel->table_bytes();
      }
    }
  }
  const auto rows_of = [&](const Segment& seg) {
    return std::span<const size_t>(rows).subspan(seg.begin,
                                                  seg.end - seg.begin);
  };
  std::vector<double> reference(n);
  for (const Segment& seg : segments) {
    pool.model(seg.model).PredictProbaBatch(
        probe, rows_of(seg),
        std::span<double>(reference).subspan(seg.begin, seg.end - seg.begin));
  }
  const std::span<const PredictKernel> kernels = PredictKernels();
  std::vector<std::vector<double>> outputs(kernels.size(),
                                           std::vector<double>(n));
  std::vector<std::function<void()>> passes;
  for (size_t k = 0; k < kernels.size(); ++k) {
    passes.push_back([&, k] {
      for (const Segment& seg : segments) {
        const std::span<double> proba = std::span<double>(outputs[k]).subspan(
            seg.begin, seg.end - seg.begin);
        if (const CompiledEnsemble* kernel = pool.kernel(seg.model)) {
          kernels[k].fn(kernel->parts(), probe.features(), width,
                        rows_of(seg), proba);
        } else {
          pool.PredictProbaBatch(seg.model, probe.features(), width,
                                 rows_of(seg), proba);
        }
      }
    });
  }
  const std::vector<std::vector<double>> seconds =
      TimeAlternating(passes, reps);
  PoolWalkResult result;
  result.rows = n;
  for (size_t k = 0; k < kernels.size(); ++k) {
    VariantResult v;
    v.name = kernels[k].name;
    v.ns_per_row = MedianSeconds(seconds[k]) * 1e9 / static_cast<double>(n);
    std::vector<double> ratios(reps);
    for (size_t rep = 0; rep < reps; ++rep) {
      ratios[rep] = seconds[0][rep] / seconds[k][rep];
    }
    v.speedup_vs_baseline = MedianSeconds(std::move(ratios));
    v.identical = SameBits(reference, outputs[k]);
    result.variants.push_back(v);
  }
  return result;
}

/// One sequential read of every byte of the pool's kernel tables.
struct StreamResult {
  size_t bytes = 0;
  double gb_per_s = 0.0;
};

StreamResult RunStreamingRead(const ModelPool& pool, size_t reps) {
  std::vector<std::span<const unsigned char>> tables;
  StreamResult result;
  for (size_t m = 0; m < pool.size(); ++m) {
    const CompiledEnsemble* kernel = pool.kernel(m);
    if (kernel == nullptr) continue;
    const CompiledEnsemble::Parts& parts = kernel->parts();
    tables.push_back(std::span<const unsigned char>(
        reinterpret_cast<const unsigned char*>(parts.nodes.data()),
        parts.nodes.size_bytes()));
    tables.push_back(std::span<const unsigned char>(
        reinterpret_cast<const unsigned char*>(parts.leaf_proba.data()),
        parts.leaf_proba.size_bytes()));
    result.bytes += parts.nodes.size_bytes() + parts.leaf_proba.size_bytes();
  }
  volatile uint64_t sink = 0;
  const double ns_per_byte = MedianNsPerRow(result.bytes, reps, [&] {
    uint64_t sum = 0;
    for (const std::span<const unsigned char> table : tables) {
      const size_t words = table.size() / sizeof(uint64_t);
      for (size_t w = 0; w < words; ++w) {
        uint64_t word;
        std::memcpy(&word, table.data() + w * sizeof(uint64_t), sizeof(word));
        sum += word;
      }
    }
    sink = sink + sum;
  });
  result.gb_per_s = 1.0 / ns_per_byte;
  return result;
}

/// The online centroid match alone, table vs reference scan.
struct MatchCaseResult {
  size_t num_centroids = 0;
  size_t dimensions = 0;
  double reference_ns_per_query = 0.0;  ///< NearestCentroid
  double table_ns_per_query = 0.0;      ///< CentroidTable::Nearest
  bool identical = true;
};

/// Times the match of every probe row (transformed once, up front) to
/// the model's centroids, through the serving table and the reference.
MatchCaseResult RunClusterMatch(const FalccModel& model, const Dataset& probe,
                                size_t reps) {
  MatchCaseResult result;
  const std::vector<std::vector<double>>& centroids = model.centroids();
  const CentroidTable table = CentroidTable::Build(centroids).value();
  result.num_centroids = table.size();
  result.dimensions = table.dimensions();
  const size_t rows = probe.num_rows();
  const size_t width = result.dimensions;
  std::vector<double> points(rows * width);
  for (size_t i = 0; i < rows; ++i) {
    model.clustering_transform().ApplyInto(
        probe.Row(i), std::span<double>(points.data() + i * width, width));
  }
  const auto point = [&](size_t i) {
    return std::span<const double>(points.data() + i * width, width);
  };
  std::vector<size_t> reference(rows), scanned(rows);
  result.reference_ns_per_query = MedianNsPerRow(rows, reps, [&] {
    for (size_t i = 0; i < rows; ++i) {
      reference[i] = NearestCentroid(centroids, point(i));
    }
  });
  result.table_ns_per_query = MedianNsPerRow(rows, reps, [&] {
    for (size_t i = 0; i < rows; ++i) scanned[i] = table.Nearest(point(i));
  });
  result.identical = reference == scanned;
  return result;
}

/// The measured streaming bandwidth and, for pool_walk and
/// serving_one_row, the ns/row a walk would take if it only had to
/// stream its bytes at that rate.
struct Ceiling {
  StreamResult stream;
  double pool_walk_floor_ns_per_row = 0.0;
  double one_row_floor_ns_per_row = 0.0;
};

void WriteJson(const std::string& path, size_t rows, size_t reps,
               const std::vector<CaseResult>& results,
               const PoolWalkResult& pool_walk, const Ceiling& ceiling, const MatchCaseResult& match) {
  double min_kernel_speedup = 0.0;
  for (const CaseResult& r : results) {
    if (r.end_to_end) continue;
    if (min_kernel_speedup == 0.0 || r.speedup < min_kernel_speedup) {
      min_kernel_speedup = r.speedup;
    }
  }
  std::ofstream out(path);
  FALCC_CHECK(static_cast<bool>(out), "cannot open BENCH_infer.json");
  out << "{\n";
  out << "  \"benchmark\": \"compiled_inference\",\n";
  out << "  \"dataset\": \"implicit\",\n";
  out << "  \"rows\": " << rows << ",\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"threads\": " << Parallelism() << ",\n";
  bench::WriteProvenance(out);
  out << "  \"note\": \"ns_per_row = median of reps passes; model-level "
         "cases time the bare kernel against the interpreted model, with "
         "decisions_identical = kernel output bit-equal to interpreted; "
         "falcc_classify_batch is the full online path (validate + "
         "transform + match + predict through the pool's kernels) and "
         "serving_one_row the same path at one row per call on the "
         "serving-scale model, both timed alone (no speedup: there is no "
         "second batch path), with decisions_identical = every decision "
         "equal to the sequential Classify / ClassifyProba / "
         "MatchCluster / GroupOf reference; table_bytes = the pool's "
         "kernel node + leaf tables and cache_lines_per_row = distinct "
         "64-byte lines one row's walk reads (one 16-byte node per level "
         "+ one leaf value per tree); cluster_match times the serving "
         "model's centroid match per probe row, CentroidTable (the "
         "serving path) vs the NearestCentroid reference scan, with "
         "decisions_identical = same cluster for every row; "
         "pool_walk times every PredictKernels() variant on the serving "
         "model's per-model segments of 4096-row batches, in alternation "
         "within each rep, with speedup_vs_baseline = median over reps "
         "of baseline / variant seconds and identical = bit-equal to the "
         "interpreted models; streaming_read is one sequential pass over "
         "the serving pool's tables, and each floor is the ns/row of "
         "streaming a case's bytes at that bandwidth (pool_walk: its "
         "model's whole table once per segment; one_row: "
         "serving_one_row's cache_lines_per_row)\",\n";
  out << "  \"cases\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    out << "    {\"case\": \"" << r.name << "\", \"end_to_end\": "
        << (r.end_to_end ? "true" : "false")
        << ", \"num_trees\": " << r.num_trees
        << ", \"num_nodes\": " << r.num_nodes;
    if (r.cache_lines_per_row > 0) {
      out << ", \"table_bytes\": " << r.table_bytes
          << ", \"cache_lines_per_row\": " << r.cache_lines_per_row;
    }
    if (r.end_to_end) {
      out << ", \"ns_per_row\": " << r.ns_per_row;
    } else {
      out << ", \"interpreted_ns_per_row\": " << r.interpreted_ns_per_row
          << ", \"compiled_ns_per_row\": " << r.ns_per_row
          << ", \"speedup\": " << r.speedup;
    }
    out << ", \"decisions_identical\": "
        << (r.decisions_identical ? "true" : "false") << "},\n";
  }
  out << "    {\"case\": \"cluster_match\", \"end_to_end\": false"
      << ", \"num_centroids\": " << match.num_centroids
      << ", \"dimensions\": " << match.dimensions
      << ", \"reference_ns_per_query\": " << match.reference_ns_per_query
      << ", \"table_ns_per_query\": " << match.table_ns_per_query
      << ", \"speedup\": "
      << match.reference_ns_per_query / match.table_ns_per_query
      << ", \"decisions_identical\": "
      << (match.identical ? "true" : "false") << "}\n";
  out << "  ],\n";
  out << "  \"pool_walk\": {\"rows\": " << pool_walk.rows
      << ", \"variants\": [";
  for (size_t k = 0; k < pool_walk.variants.size(); ++k) {
    const VariantResult& v = pool_walk.variants[k];
    out << (k == 0 ? "" : ", ") << "{\"variant\": \"" << v.name
        << "\", \"ns_per_row\": " << v.ns_per_row
        << ", \"speedup_vs_baseline\": " << v.speedup_vs_baseline
        << ", \"identical\": " << (v.identical ? "true" : "false") << "}";
  }
  out << "]},\n";
  out << "  \"streaming_read\": {\"table_bytes\": " << ceiling.stream.bytes
      << ", \"gb_per_s\": " << ceiling.stream.gb_per_s
      << ", \"pool_walk_floor_ns_per_row\": "
      << ceiling.pool_walk_floor_ns_per_row
      << ", \"one_row_floor_ns_per_row\": "
      << ceiling.one_row_floor_ns_per_row << "},\n";
  out << "  \"min_kernel_speedup\": " << min_kernel_speedup << "\n";
  out << "}\n";
}

int Main(int argc, char** argv) {
  // Single-thread by default: the kernel claim is per-core, and the
  // model-level loops are serial either way. --threads still overrides.
  SetParallelism(1);
  bench::ApplyThreadsFlag(&argc, argv);
  bench::PrintThreadHeader("bench_infer");

  std::string json_path = "BENCH_infer.json";
  size_t rows = 20000;
  size_t reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      json_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = static_cast<size_t>(std::max(1L, std::atol(argv[i] + 7)));
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::max(1L, std::atol(argv[i] + 7)));
    }
  }

  SyntheticConfig cfg;
  cfg.num_samples = 2000;
  cfg.seed = 31;
  const Dataset train = GenerateImplicitBias(cfg).value();
  cfg.num_samples = rows;
  cfg.seed = 32;
  const Dataset probe = GenerateImplicitBias(cfg).value();

  std::vector<CaseResult> results;
  PoolWalkResult pool_walk;
  Ceiling ceiling;
  MatchCaseResult match;

  {
    AdaBoostOptions opt;
    opt.num_estimators = 40;
    opt.base.max_depth = 8;
    AdaBoost model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    results.push_back(
        RunModelCase("adaboost_deep", model, probe, reps));
  }
  {
    AdaBoostOptions opt;
    opt.num_estimators = 20;
    opt.base.max_depth = 4;
    AdaBoost model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    results.push_back(
        RunModelCase("adaboost_shallow", model, probe, reps));
  }
  {
    RandomForestOptions opt;
    opt.num_trees = 40;
    opt.base.max_depth = 10;
    RandomForest model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    results.push_back(
        RunModelCase("random_forest", model, probe, reps));
  }
  {
    DecisionTreeOptions opt;
    opt.max_depth = 12;
    DecisionTree model(opt);
    FALCC_CHECK(model.Fit(train).ok(), "bench_infer: fit failed");
    results.push_back(
        RunModelCase("single_tree", model, probe, reps));
  }
  {
    cfg.num_samples = 6000;
    cfg.seed = 33;
    const Dataset e2e_train = GenerateImplicitBias(cfg).value();
    Result<FalccModel> model =
        FalccModel::Train(e2e_train, probe, EndToEndOptions());
    FALCC_CHECK(model.ok(), "bench_infer: train failed");
    results.push_back(RunEndToEnd(model.value(), probe, reps));
  }
  {
    // Training is deterministic at any thread count; only the timed
    // passes run on one thread.
    const size_t timed_threads = Parallelism();
    SetParallelism(std::thread::hardware_concurrency());
    cfg.num_samples = 6000;
    cfg.seed = 71;
    const Dataset serving_train = GenerateImplicitBias(cfg).value();
    cfg.num_samples = 2000;
    cfg.seed = 72;
    const Dataset serving_validation = GenerateImplicitBias(cfg).value();
    Result<FalccModel> model = FalccModel::Train(
        serving_train, serving_validation, ServingOptions());
    FALCC_CHECK(model.ok(), "bench_infer: serving model train failed");
    SetParallelism(timed_threads);
    results.push_back(RunServing(model.value(), probe, reps));
    size_t table_bytes_walked = 0;
    pool_walk = RunPoolWalk(model.value(), probe, reps, &table_bytes_walked);
    ceiling.stream = RunStreamingRead(model.value().pool(), reps);
    ceiling.pool_walk_floor_ns_per_row =
        static_cast<double>(table_bytes_walked) / ceiling.stream.gb_per_s /
        static_cast<double>(probe.num_rows());
    ceiling.one_row_floor_ns_per_row =
        results.back().cache_lines_per_row * 64.0 / ceiling.stream.gb_per_s;
    match = RunClusterMatch(model.value(), probe, reps);
  }

  bool all_identical = true;
  for (const CaseResult& r : results) {
    if (r.end_to_end) {
      std::printf("%-22s %9.1f ns/row   identical=%s (vs sequential)\n",
                  r.name.c_str(), r.ns_per_row,
                  r.decisions_identical ? "true" : "false");
    } else {
      std::printf(
          "%-22s interpreted %9.1f ns/row   compiled %9.1f ns/row   "
          "speedup %5.2fx   identical=%s\n",
          r.name.c_str(), r.interpreted_ns_per_row, r.ns_per_row, r.speedup,
          r.decisions_identical ? "true" : "false");
    }
    if (r.cache_lines_per_row > 0) {
      std::printf("%-22s tables %.1f MB   %.1f cache lines/row\n", "",
                  static_cast<double>(r.table_bytes) / 1e6,
                  r.cache_lines_per_row);
    }
    all_identical = all_identical && r.decisions_identical;
  }
  for (const VariantResult& v : pool_walk.variants) {
    std::printf("%-22s %-9s %9.1f ns/row   speedup %5.2fx   identical=%s\n",
                "pool_walk", v.name.c_str(), v.ns_per_row,
                v.speedup_vs_baseline, v.identical ? "true" : "false");
  }
  all_identical = all_identical && pool_walk.identical();
  std::printf(
      "%-22s %.1f MB at %.2f GB/s   floor: pool_walk %.1f ns/row, "
      "one_row %.1f ns/row\n",
      "streaming_read", static_cast<double>(ceiling.stream.bytes) / 1e6,
      ceiling.stream.gb_per_s, ceiling.pool_walk_floor_ns_per_row,
      ceiling.one_row_floor_ns_per_row);
  std::printf(
      "%-22s reference %9.1f ns/query table %9.1f ns/query   "
      "speedup %5.2fx   identical=%s   (k = %zu, d = %zu)\n",
      "cluster_match", match.reference_ns_per_query,
      match.table_ns_per_query,
      match.reference_ns_per_query / match.table_ns_per_query,
      match.identical ? "true" : "false", match.num_centroids,
      match.dimensions);
  WriteJson(json_path, rows, reps, results, pool_walk, ceiling, match);
  std::printf("\nwrote %s\n", json_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_infer: compiled probabilities (of some kernel "
                 "variant) diverged from the interpreted models, or batch "
                 "decisions from the sequential reference\n");
    return 1;
  }
  if (!match.identical) {
    std::fprintf(stderr,
                 "bench_infer: CentroidTable clusters diverged from the "
                 "NearestCentroid reference\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) { return falcc::Main(argc, argv); }
