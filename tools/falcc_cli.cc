// falcc command-line tool: train, persist, apply, and audit FALCC models
// on CSV data.
//
//   falcc_cli generate --dataset compas --out data.csv [--scale 0.5]
//   falcc_cli train   --data data.csv --sensitive race --out model.falcc
//                     [--label label] [--metric dp|eq_od|eq_op|tr_eq]
//                     [--lambda 0.5] [--proxy none|reweigh|remove]
//                     [--k N] [--seed S]
//   falcc_cli predict --model model.falcc --data data.csv [--label label]
//   falcc_cli classify --model model.falcc --data data.csv [--label label]
//                     [--metrics-out metrics.json] [--shards N]
//                     [--follow dir|tcp://host:port|unix://path]
//   falcc_cli monitor --model model.falcc --data data.csv [--label label]
//                     [--chunk 256] [--poll-every 1] [--repeat 1]
//                     [--window 512] [--threshold 1.0] [--slack 0.05]
//                     [--min-samples 100] [--drift-cluster C]
//                     [--drift-start N] [--metrics-out metrics.json]
//                     [--delta-dir feed/ [--listen tcp://host:port]]
//   falcc_cli audit   --data data.csv --sensitive race [--label label]
//   falcc_cli inspect --data data.csv --sensitive race [--label label]
//                     [--proxy-threshold 0.5]
//   falcc_cli snapshot inspect --model model.falcc
//   falcc_cli snapshot verify  --model model.falcc
//   falcc_cli snapshot diff    --model a.falcc --other b.falcc
//   falcc_cli replicate status --dir feed/
//   falcc_cli replicate serve-feed --dir feed/ --listen tcp://host:port
//                     [--duration-s N] [--heartbeat-s 0.2]
//
// Flags take values as either `--flag value` or `--flag=value`; flags
// may repeat where noted (--sensitive). A flag the command does not read
// is an error (`unknown flag --X for 'classify'`), never ignored.
//
// `generate` writes one of the built-in benchmark stand-ins; `train`
// runs the offline phase (50/35 train/validation split of the input) and
// saves the model; `predict` classifies every row and, if labels are
// present, reports accuracy and bias; `classify` routes the rows through
// the serving engine's validated batch API and emits one line per sample
// with the full audit trail (prediction, probability, matched cluster,
// sensitive group, pool model) — with --shards N the rows go through the
// sharded serving fleet (per-row affinity keys, each shard flushing its
// backlog as one batch) instead of one direct batch call, and the
// audit output is bit-identical either way; `monitor` replays a labeled stream
// through the serving engine with the drift monitor attached —
// classifying in chunks, feeding the CSV labels back as delayed ground
// truth (optionally injecting a targeted label shift into one cluster
// with --drift-cluster/--drift-start), polling the monitor, and
// reporting alarms, refreshes, and the final summary JSON — with
// --delta-dir DIR every installed refresh also publishes a delta
// artifact there for replicas to apply incrementally; `audit` compares
// FALCC against Decouple and the plain baselines on a held-out split;
// `snapshot` operates on serialized artifacts (`falcc-snapshot-v2` and
// `falcc-delta-v2`; any other header, a v1 `falcc-model-v1` file
// included, is rejected with that header in the error): `inspect` prints
// the section manifest as JSON, `verify` checks every section checksum
// (and fully loads full snapshots), `diff` compares two artifacts section
// by section — between a base and the snapshot a delta produces, it shows
// exactly the combo sections the delta carries; `replicate status` lists
// a feed directory's artifacts in apply order and walks the delta chain
// (checkpoint loads + delta applications), reporting breaks, failed
// loads and applies, and the head content hash, and exits 1 if anything
// in the feed is broken; `replicate serve-feed` is the push gateway: it
// serves a feed directory over a socket endpoint (SocketPublisher),
// waking on directory events (inotify where available) to forward
// artifacts an external publisher writes, so replicas on other hosts
// follow without a shared filesystem. `classify --follow SPEC` drains
// the feed through a DeltaPuller before classifying, so the decisions
// come from the feed's head snapshot rather than the --model file as
// shipped — SPEC is a feed directory, or a `tcp://host:port` /
// `unix://path` endpoint to subscribe to a serve-feed (or
// `monitor --listen`) publisher.
// `monitor --delta-dir D --listen EP` publishes refreshes through a
// socket publisher: artifacts land in D (the durable store) and are
// pushed to subscribers on EP.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/falcc.h"
#include "data/csv_dataset.h"
#include "data/split.h"
#include "datagen/benchmark_data.h"
#include "datagen/synthetic.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "fairness/audit.h"
#include "fairness/loss.h"
#include "fairness/proxy.h"
#include "io/mapped_file.h"
#include "io/snapshot.h"
#include "monitor/monitor.h"
#include "replicate/dir_watcher.h"
#include "replicate/feed.h"
#include "replicate/puller.h"
#include "replicate/socket_feed.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"

namespace falcc {
namespace {

// Numeric flags, by name, in every command that reads them. A size is a
// non-negative decimal integer and a double a finite number, each
// spelling the whole value; --window must also be positive (an empty
// window measures nothing).
constexpr std::string_view kSizeFlags[] = {
    "seed", "k", "shards", "log-capacity", "window", "min-samples",
    "checkpoint-every", "chunk", "poll-every", "repeat", "drift-cluster",
    "drift-start"};
constexpr std::string_view kDoubleFlags[] = {
    "scale", "lambda", "threshold", "slack", "proxy-threshold",
    "duration-s", "heartbeat-s"};

template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

bool ValidNumber(std::string_view flag, std::string_view text) {
  const auto is = [&](std::span<const std::string_view> names) {
    return std::find(names.begin(), names.end(), flag) != names.end();
  };
  if (is(kDoubleFlags)) return ParseNumber<double>(text).has_value();
  if (!is(kSizeFlags)) return true;
  const std::optional<size_t> size = ParseNumber<size_t>(text);
  return size.has_value() && (flag != "window" || *size > 0);
}

// Minimal flag parser: `--flag value` and `--flag=value`, bounds-checked.
// Flags may repeat (for --sensitive); malformed command lines and flags
// the command does not read surface as an error Status instead of being
// silently dropped.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        status_ = Status::InvalidArgument("unexpected argument '" +
                                          std::string(arg) +
                                          "' (flags start with --)");
        return;
      }
      const std::string flag = arg + 2;
      const size_t eq = flag.find('=');
      if (eq != std::string::npos) {
        values_[flag.substr(0, eq)].push_back(flag.substr(eq + 1));
        continue;
      }
      if (i + 1 >= argc) {
        status_ = Status::InvalidArgument(
            "flag --" + flag + " is missing a value (use --" + flag +
            " <value> or --" + flag + "=<value>)");
        return;
      }
      values_[flag].push_back(argv[++i]);
    }
  }

  /// OK unless the command line was malformed.
  const Status& status() const { return status_; }

  /// Fails on the first flag that is not in `known`, the flags
  /// `command` reads, or whose value is not a valid number for a
  /// numeric flag (kSizeFlags, kDoubleFlags) — before the command opens
  /// any file.
  Status CheckFlags(std::string_view command,
                    std::initializer_list<std::string_view> known) const {
    for (const auto& [flag, values] : values_) {
      if (std::find(known.begin(), known.end(), flag) == known.end()) {
        return Status::InvalidArgument("unknown flag --" + flag + " for '" +
                                       std::string(command) + "'");
      }
      for (const std::string& value : values) {
        if (!ValidNumber(flag, value)) {
          return Status::InvalidArgument("invalid value '" + value +
                                         "' for --" + flag);
        }
      }
    }
    return Status::OK();
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }

  std::vector<std::string> GetAll(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  /// A numeric flag's value, which CheckFlags has already accepted.
  double GetDouble(const std::string& key, double fallback) const {
    return GetNumber<double>(key, fallback);
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    return GetNumber<size_t>(key, fallback);
  }

 private:
  template <typename T>
  T GetNumber(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::optional<T> value = ParseNumber<T>(it->second.back());
    FALCC_CHECK(value.has_value(),
                "flag read as a number but not in kSizeFlags/kDoubleFlags");
    return *value;
  }

  Status status_;
  std::map<std::string, std::vector<std::string>> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteStringToFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != text.size() || !closed) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<FairnessMetric> ParseMetric(const std::string& name) {
  if (name == "dp") return FairnessMetric::kDemographicParity;
  if (name == "eq_od") return FairnessMetric::kEqualizedOdds;
  if (name == "eq_op") return FairnessMetric::kEqualOpportunity;
  if (name == "tr_eq") return FairnessMetric::kTreatmentEquality;
  return Status::InvalidArgument("unknown metric '" + name + "'");
}

Result<ProxyMitigation> ParseProxy(const std::string& name) {
  if (name == "none") return ProxyMitigation::kNone;
  if (name == "reweigh") return ProxyMitigation::kReweigh;
  if (name == "remove") return ProxyMitigation::kRemove;
  return Status::InvalidArgument("unknown proxy strategy '" + name + "'");
}

int Generate(const Args& args) {
  const Status flags = args.CheckFlags(
      "generate", {"dataset", "out", "scale", "seed"});
  if (!flags.ok()) return Fail(flags);
  const std::string name = args.Get("dataset", "compas");
  const std::string out = args.Get("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("--out required"));
  const double scale = args.GetDouble("scale", 1.0);
  const uint64_t seed = args.GetSize("seed", 1);

  Result<Dataset> data = Status::InvalidArgument("unknown dataset");
  if (name == "social" || name == "implicit") {
    SyntheticConfig cfg;
    cfg.num_samples = static_cast<size_t>(14000 * scale);
    cfg.seed = seed;
    data = name == "social" ? GenerateSocialBias(cfg)
                            : GenerateImplicitBias(cfg);
  } else {
    for (const BenchmarkDataSpec& spec : AllBenchmarkSpecs()) {
      std::string lower = spec.name;
      for (char& c : lower) c = static_cast<char>(std::tolower(c));
      if (lower == name) {
        data = GenerateBenchmarkDataset(spec, seed, scale);
        break;
      }
    }
  }
  if (!data.ok()) return Fail(data.status());
  const Status written = WriteDatasetCsv(out, data.value(), "label");
  if (!written.ok()) return Fail(written);
  std::printf("wrote %zu rows x %zu features to %s\n",
              data.value().num_rows(), data.value().num_features(),
              out.c_str());
  return 0;
}

int Train(const Args& args) {
  const Status flags = args.CheckFlags(
      "train", {"data", "sensitive", "out", "label", "metric", "lambda",
                "proxy", "k", "seed"});
  if (!flags.ok()) return Fail(flags);
  const std::string path = args.Get("data", "");
  const std::string out = args.Get("out", "");
  if (path.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--data and --out required"));
  }
  const std::vector<std::string> sensitive = args.GetAll("sensitive");
  if (sensitive.empty()) {
    return Fail(Status::InvalidArgument("at least one --sensitive required"));
  }
  Result<Dataset> data =
      ReadDatasetCsv(path, args.Get("label", "label"), sensitive);
  if (!data.ok()) return Fail(data.status());

  // All labeled input feeds the offline phase: 60/40 train/validation.
  Result<TrainValTest> splits =
      SplitDataset(data.value(), 0.6, 0.399, 0.001, args.GetSize("seed", 1));
  if (!splits.ok()) return Fail(splits.status());

  FalccOptions options;
  Result<FairnessMetric> metric = ParseMetric(args.Get("metric", "dp"));
  if (!metric.ok()) return Fail(metric.status());
  options.metric = metric.value();
  Result<ProxyMitigation> proxy = ParseProxy(args.Get("proxy", "none"));
  if (!proxy.ok()) return Fail(proxy.status());
  options.proxy.strategy = proxy.value();
  options.lambda = args.GetDouble("lambda", 0.5);
  options.fixed_k = args.GetSize("k", 0);
  options.seed = args.GetSize("seed", 1);

  Result<FalccModel> model = FalccModel::Train(
      splits.value().train, splits.value().validation, options);
  if (!model.ok()) return Fail(model.status());
  const Status saved = model.value().SaveToFile(out);
  if (!saved.ok()) return Fail(saved);
  std::printf("trained FALCC: %zu models, %zu clusters, %zu groups -> %s\n",
              model.value().pool().size(), model.value().num_clusters(),
              model.value().num_groups(), out.c_str());
  return 0;
}

int Predict(const Args& args) {
  const Status flags = args.CheckFlags("predict", {"model", "data", "label"});
  if (!flags.ok()) return Fail(flags);
  const std::string model_path = args.Get("model", "");
  const std::string data_path = args.Get("data", "");
  if (model_path.empty() || data_path.empty()) {
    return Fail(Status::InvalidArgument("--model and --data required"));
  }
  Result<FalccModel> model = FalccModel::LoadMapped(model_path);
  if (!model.ok()) return Fail(model.status());
  Result<CsvTable> table = ReadCsvFile(data_path);
  if (!table.ok()) return Fail(table.status());

  // Label column is optional at prediction time.
  const std::string label_column = args.Get("label", "label");
  const bool has_labels =
      std::find(table.value().header.begin(), table.value().header.end(),
                label_column) != table.value().header.end();

  size_t correct = 0;
  std::vector<int> labels;
  for (const auto& row : table.value().rows) {
    std::vector<double> features;
    int label = -1;
    for (size_t c = 0; c < row.size(); ++c) {
      if (has_labels && table.value().header[c] == label_column) {
        label = static_cast<int>(row[c]);
      } else {
        features.push_back(row[c]);
      }
    }
    const int prediction = model.value().Classify(features);
    std::printf("%d\n", prediction);
    if (has_labels && prediction == label) ++correct;
  }
  if (has_labels && !table.value().rows.empty()) {
    std::fprintf(stderr, "accuracy: %.3f (%zu rows)\n",
                 static_cast<double>(correct) / table.value().num_rows(),
                 table.value().num_rows());
  }
  return 0;
}

// `--follow` accepts either transport: a feed directory (DirectoryFeed)
// or a `tcp://host:port` / `unix://path` socket endpoint (SocketFeed
// subscribing to a serve-feed or `monitor --listen` publisher).
Result<std::unique_ptr<replicate::DeltaFeed>> OpenFeed(
    const std::string& spec) {
  if (replicate::IsSocketEndpoint(spec)) {
    Result<std::unique_ptr<replicate::SocketFeed>> feed =
        replicate::SocketFeed::Connect(spec);
    if (!feed.ok()) return feed.status();
    return std::unique_ptr<replicate::DeltaFeed>(std::move(feed).value());
  }
  return std::unique_ptr<replicate::DeltaFeed>(
      std::make_unique<replicate::DirectoryFeed>(spec));
}

// Drains a replication feed before classifying: a DeltaPuller applies
// every pending artifact — deltas in chain order, checkpoints as full
// reloads — until a poll sees nothing new and no recovery is pending
// (bounded, so a feed that is permanently broken degrades to serving
// the last-good snapshot instead of hanging the command). A directory
// is drained as fast as Poll can scan it; a socket feed subscribes in
// the background, so an empty poll there waits briefly for the catch-up
// replay to land (up to ~2s of cumulative idle) instead of concluding
// the feed is empty on the first look. A ShardedEngine drains through
// its snapshot store.
Status DrainFeed(serve::FalccEngine* engine, const std::string& spec) {
  Result<std::unique_ptr<replicate::DeltaFeed>> feed = OpenFeed(spec);
  if (!feed.ok()) return feed.status();
  replicate::DeltaFeed* raw = feed.value().get();
  const int idle_budget = replicate::IsSocketEndpoint(spec) ? 40 : 1;
  replicate::DeltaPuller puller(engine, std::move(feed).value());
  int idle = 0;
  for (int i = 0; i < 4096 && idle < idle_budget; ++i) {
    const replicate::PullReport report = puller.PollOnce();
    if (report.entries_seen == 0 && !report.recovery_pending) {
      ++idle;
      if (idle < idle_budget) raw->WaitForChange(0.05);
    } else {
      idle = 0;
    }
  }
  const replicate::DeltaPullerStats stats = puller.Stats();
  std::fprintf(stderr,
               "follow %s: %llu deltas applied, %llu full reloads, "
               "%llu recoveries, %llu quarantined (feed position %llu)\n",
               spec.c_str(),
               static_cast<unsigned long long>(stats.deltas_applied),
               static_cast<unsigned long long>(stats.full_reloads),
               static_cast<unsigned long long>(stats.recoveries),
               static_cast<unsigned long long>(stats.quarantined),
               static_cast<unsigned long long>(stats.last_sequence));
  if (stats.recovery_pending) {
    std::fprintf(stderr,
                 "follow %s: feed degraded (%s); serving last-good "
                 "snapshot\n",
                 spec.c_str(), stats.last_error.c_str());
  }
  return Status::OK();
}

// Serving-path classification: routes all rows through the validated
// serving API — one direct ClassifyBatch call by default, or the sharded
// fleet (per-row affinity keys, backlog batching) with --shards N —
// emitting the per-sample audit trail. The two paths are bit-identical
// by contract. Engine metrics go to stderr.
int ClassifySamples(const Args& args) {
  const Status flags = args.CheckFlags(
      "classify", {"model", "data", "label", "metrics-out", "shards", "follow"});
  if (!flags.ok()) return Fail(flags);
  const std::string model_path = args.Get("model", "");
  const std::string data_path = args.Get("data", "");
  if (model_path.empty() || data_path.empty()) {
    return Fail(Status::InvalidArgument("--model and --data required"));
  }
  const size_t shards = args.GetSize("shards", 0);
  Result<FalccModel> model = FalccModel::LoadMapped(model_path);
  if (!model.ok()) return Fail(model.status());

  Result<CsvTable> table = ReadCsvFile(data_path);
  if (!table.ok()) return Fail(table.status());

  // Label column is optional at classification time.
  const std::string label_column = args.Get("label", "label");
  const bool has_labels =
      std::find(table.value().header.begin(), table.value().header.end(),
                label_column) != table.value().header.end();

  std::vector<double> flat;
  std::vector<int> labels;
  size_t width = 0;
  for (const auto& row : table.value().rows) {
    size_t row_width = 0;
    for (size_t c = 0; c < row.size(); ++c) {
      if (has_labels && table.value().header[c] == label_column) {
        labels.push_back(static_cast<int>(row[c]));
      } else {
        flat.push_back(row[c]);
        ++row_width;
      }
    }
    if (width == 0) width = row_width;
    if (row_width != width) {
      return Fail(Status::InvalidArgument("ragged CSV: rows mix " +
                                          std::to_string(width) + " and " +
                                          std::to_string(row_width) +
                                          " feature columns"));
    }
  }

  std::vector<SampleDecision> decisions;
  serve::MetricsSnapshot metrics;
  if (shards > 0) {
    // Sharded fleet: one submission per row, keyed by row index so the
    // routing (and any diagnostics) is reproducible run to run.
    serve::ShardedEngineOptions options;
    options.num_shards = shards;
    serve::ShardedEngine engine(options);
    engine.Install(std::move(model).value());
    const std::string follow = args.Get("follow", "");
    if (!follow.empty()) {
      const Status drained = DrainFeed(&engine, follow);
      if (!drained.ok()) return Fail(drained);
    }
    const size_t rows = width == 0 ? 0 : flat.size() / width;
    std::vector<serve::ShardTicket> tickets;
    tickets.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      const std::span<const double> sample(flat.data() + i * width, width);
      Result<serve::ShardTicket> ticket = engine.SubmitWithKey(i, sample);
      if (!ticket.ok()) return Fail(ticket.status());
      tickets.push_back(std::move(ticket).value());
    }
    decisions.reserve(rows);
    for (const serve::ShardTicket& ticket : tickets) {
      Result<SampleDecision> d = ticket.Wait();
      if (!d.ok()) return Fail(d.status());
      decisions.push_back(std::move(d).value());
    }
    engine.Shutdown();  // join workers so per-ticket totals are recorded
    metrics = engine.GetMetrics();
  } else {
    serve::FalccEngine engine;
    engine.Install(std::move(model).value());
    const std::string follow = args.Get("follow", "");
    if (!follow.empty()) {
      const Status drained = DrainFeed(&engine, follow);
      if (!drained.ok()) return Fail(drained);
    }
    ClassifyRequest request;
    request.features = flat;
    request.num_features = width;
    Result<ClassifyResponse> response = engine.ClassifyBatch(request);
    if (!response.ok()) return Fail(response.status());
    decisions = std::move(response.value().decisions);
    metrics = engine.GetMetrics();
  }

  std::printf("prediction,probability,cluster,group,model\n");
  size_t correct = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    const SampleDecision& d = decisions[i];
    std::printf("%d,%.17g,%zu,%zu,%zu\n", d.label, d.probability, d.cluster,
                d.group, d.model);
    if (has_labels && d.label == labels[i]) ++correct;
  }
  if (has_labels && !decisions.empty()) {
    std::fprintf(stderr, "accuracy: %.3f (%zu rows)\n",
                 static_cast<double>(correct) / decisions.size(),
                 decisions.size());
  }
  std::fprintf(stderr, "%s", metrics.ToString().c_str());
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!metrics_out.empty()) {
    const Status written =
        WriteStringToFile(metrics_out, metrics.ToJson() + "\n");
    if (!written.ok()) return Fail(written);
  }
  return 0;
}

// Replays a labeled CSV through the serving engine with the drift
// monitor attached: classifies in --chunk-sized batches, feeds the CSV
// labels back as delayed ground truth (decision ids are assigned in
// append order, so a chunk's ids are next_id()..next_id()+n-1),
// optionally injecting a targeted label shift into one cluster, and
// polls the monitor between chunks. Alarms and refreshes stream to
// stderr; the final monitor summary JSON goes to stdout.
int Monitor(const Args& args) {
  const Status flags = args.CheckFlags(
      "monitor",
      {"model", "data", "label", "chunk", "poll-every", "repeat", "window",
       "threshold", "slack", "min-samples", "drift-cluster", "drift-start",
       "metrics-out", "delta-dir", "listen", "checkpoint-every",
       "log-capacity"});
  if (!flags.ok()) return Fail(flags);
  const std::string model_path = args.Get("model", "");
  const std::string data_path = args.Get("data", "");
  if (model_path.empty() || data_path.empty()) {
    return Fail(Status::InvalidArgument("--model and --data required"));
  }
  serve::FalccEngine engine;
  const Status loaded = engine.ReloadMapped(model_path);
  if (!loaded.ok()) return Fail(loaded);

  Result<CsvTable> table = ReadCsvFile(data_path);
  if (!table.ok()) return Fail(table.status());

  // Monitoring needs ground truth: the label column is mandatory here.
  const std::string label_column = args.Get("label", "label");
  if (std::find(table.value().header.begin(), table.value().header.end(),
                label_column) == table.value().header.end()) {
    return Fail(Status::InvalidArgument(
        "monitor needs ground truth: no '" + label_column +
        "' column in " + data_path + " (set --label)"));
  }

  std::vector<double> flat;
  std::vector<int> labels;
  size_t width = 0;
  for (const auto& row : table.value().rows) {
    size_t row_width = 0;
    for (size_t c = 0; c < row.size(); ++c) {
      if (table.value().header[c] == label_column) {
        labels.push_back(static_cast<int>(row[c]));
      } else {
        flat.push_back(row[c]);
        ++row_width;
      }
    }
    if (width == 0) width = row_width;
    if (row_width != width) {
      return Fail(Status::InvalidArgument("ragged CSV: rows mix " +
                                          std::to_string(width) + " and " +
                                          std::to_string(row_width) +
                                          " feature columns"));
    }
  }
  const size_t num_rows = labels.size();
  if (num_rows == 0) return Fail(Status::InvalidArgument("no data rows"));

  monitor::MonitorOptions monitor_options;
  monitor_options.log_capacity = args.GetSize("log-capacity", 1 << 14);
  monitor_options.window = args.GetSize("window", 512);
  monitor_options.detector.threshold = args.GetDouble("threshold", 1.0);
  monitor_options.detector.slack = args.GetDouble("slack", 0.05);
  monitor_options.detector.min_samples = args.GetSize("min-samples", 100);
  monitor_options.delta_dir = args.Get("delta-dir", "");
  monitor_options.checkpoint_every = args.GetSize("checkpoint-every", 8);
  monitor_options.feed_listen = args.Get("listen", "");
  if (!monitor_options.feed_listen.empty() &&
      monitor_options.delta_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "--listen needs --delta-dir (the socket publisher's durable "
        "store and catch-up source)"));
  }
  Result<std::unique_ptr<monitor::FairnessMonitor>> attached =
      monitor::FairnessMonitor::Attach(&engine, monitor_options);
  if (!attached.ok()) return Fail(attached.status());
  monitor::FairnessMonitor& mon = *attached.value();

  const size_t chunk = std::max<size_t>(1, args.GetSize("chunk", 256));
  const size_t poll_every = std::max<size_t>(1, args.GetSize("poll-every", 1));
  const size_t repeat = std::max<size_t>(1, args.GetSize("repeat", 1));
  // Drift injection: from global sample index --drift-start onward,
  // decisions routed to --drift-cluster get truth = 1 - prediction (a
  // worst-case targeted label shift; other clusters keep CSV labels).
  const bool inject = !args.Get("drift-cluster", "").empty();
  const size_t drift_cluster = args.GetSize("drift-cluster", 0);
  const size_t drift_start = args.GetSize("drift-start", 0);

  const size_t total = num_rows * repeat;
  size_t sent = 0;
  size_t chunks = 0;
  while (sent < total) {
    const size_t take = std::min(chunk, total - sent);
    std::vector<double> batch;
    batch.reserve(take * width);
    std::vector<int> truth(take);
    for (size_t i = 0; i < take; ++i) {
      const size_t row = (sent + i) % num_rows;
      batch.insert(batch.end(), flat.begin() + row * width,
                   flat.begin() + (row + 1) * width);
      truth[i] = labels[row];
    }
    ClassifyRequest request;
    request.num_features = width;
    request.features = batch;
    const uint64_t base_id = mon.log().next_id();
    Result<ClassifyResponse> response = engine.ClassifyBatch(request);
    if (!response.ok()) return Fail(response.status());
    const std::vector<SampleDecision>& decisions = response.value().decisions;
    for (size_t i = 0; i < decisions.size(); ++i) {
      int label = truth[i];
      if (inject && sent + i >= drift_start &&
          decisions[i].cluster == drift_cluster) {
        label = 1 - decisions[i].label;
      }
      mon.AddFeedback(base_id + i, label);
    }
    sent += take;
    ++chunks;
    if (chunks % poll_every != 0 && sent < total) continue;
    Result<monitor::MonitorPollResult> poll = mon.Poll();
    if (!poll.ok()) return Fail(poll.status());
    for (size_t c : poll.value().new_alarms) {
      std::fprintf(stderr, "sample %zu: drift alarm on cluster %zu\n", sent,
                   c);
    }
    for (const monitor::RefreshOutcome& r : poll.value().refreshes) {
      std::fprintf(stderr,
                   "sample %zu: refresh cluster %zu %s (L %.6f -> %.6f, "
                   "%.3fs)\n",
                   sent, r.cluster, r.installed ? "installed" : "rejected",
                   r.current_loss, r.best_loss, r.seconds);
      if (!r.delta_path.empty()) {
        std::fprintf(stderr, "sample %zu: published delta %s (%zu bytes)\n",
                     sent, r.delta_path.c_str(), r.delta_bytes);
      }
    }
  }

  std::printf("%s\n", mon.Summary().ToJson().c_str());
  std::fprintf(stderr, "%s", engine.GetMetrics().ToString().c_str());
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!metrics_out.empty()) {
    const Status written =
        WriteStringToFile(metrics_out, engine.GetMetrics().ToJson() + "\n");
    if (!written.ok()) return Fail(written);
  }
  return 0;
}

int Audit(const Args& args) {
  const Status flags = args.CheckFlags(
      "audit", {"data", "sensitive", "label", "metric", "seed"});
  if (!flags.ok()) return Fail(flags);
  const std::string path = args.Get("data", "");
  if (path.empty()) return Fail(Status::InvalidArgument("--data required"));
  const std::vector<std::string> sensitive = args.GetAll("sensitive");
  if (sensitive.empty()) {
    return Fail(Status::InvalidArgument("at least one --sensitive required"));
  }
  Result<Dataset> data =
      ReadDatasetCsv(path, args.Get("label", "label"), sensitive);
  if (!data.ok()) return Fail(data.status());

  ExperimentOptions options;
  Result<FairnessMetric> metric = ParseMetric(args.Get("metric", "dp"));
  if (!metric.ok()) return Fail(metric.status());
  options.metric = metric.value();
  options.seed = args.GetSize("seed", 1);
  Result<Experiment> experiment = Experiment::Create(data.value(), options);
  if (!experiment.ok()) return Fail(experiment.status());

  TextTable table({"algorithm", "acc%", "global", "local", "indiv",
                   "us/sample"});
  for (Algorithm algorithm :
       {Algorithm::kFairSmote, Algorithm::kFaX, Algorithm::kDecouple,
        Algorithm::kFalcesBest, Algorithm::kFalcc}) {
    Result<EvalMeasurement> m = experiment.value().Run(algorithm);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   AlgorithmName(algorithm).c_str(),
                   m.status().ToString().c_str());
      continue;
    }
    table.AddRow({AlgorithmName(algorithm),
                  FormatPercent(m.value().accuracy, 1),
                  FormatDouble(m.value().global_bias, 3),
                  FormatDouble(m.value().local_bias, 3),
                  FormatDouble(m.value().individual_bias, 3),
                  FormatDouble(m.value().online_micros_per_sample, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int Inspect(const Args& args) {
  const Status flags = args.CheckFlags(
      "inspect", {"data", "sensitive", "label", "proxy-threshold"});
  if (!flags.ok()) return Fail(flags);
  const std::string path = args.Get("data", "");
  if (path.empty()) return Fail(Status::InvalidArgument("--data required"));
  const std::vector<std::string> sensitive = args.GetAll("sensitive");
  if (sensitive.empty()) {
    return Fail(Status::InvalidArgument("at least one --sensitive required"));
  }
  Result<Dataset> data =
      ReadDatasetCsv(path, args.Get("label", "label"), sensitive);
  if (!data.ok()) return Fail(data.status());

  // Audit of the ground-truth labels (z = y shows the data's own bias).
  Result<FairnessAudit> audit =
      AuditPredictions(data.value(), data.value().labels());
  if (!audit.ok()) return Fail(audit.status());
  std::printf("=== dataset bias profile (labels audited as predictions) "
              "===\n%s\n",
              FormatAudit(audit.value()).c_str());

  // Proxy analysis.
  ProxyOptions proxy;
  proxy.removal_threshold = args.GetDouble("proxy-threshold", 0.5);
  Result<std::vector<ProxyReport>> reports =
      AnalyzeProxies(data.value(), proxy);
  if (!reports.ok()) return Fail(reports.status());
  TextTable table({"attribute", "|rho| vs sensitive", "Eq.1 weight",
                   "proxy?"});
  for (const ProxyReport& r : reports.value()) {
    table.AddRow({data.value().feature_names()[r.column],
                  FormatDouble(r.mean_abs_correlation, 3),
                  FormatDouble(r.weight, 3), r.removed ? "yes" : ""});
  }
  std::printf("=== proxy analysis ===\n%s", table.ToString().c_str());
  return 0;
}

// --- snapshot subcommand ------------------------------------------------

/// `text` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else passed through.
std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                        static_cast<unsigned>(c));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// One artifact's manifest as a JSON object (keys always in the same
/// order so diffs of inspect output are stable).
std::string ManifestJson(const std::string& path,
                         const io::SnapshotReader& reader) {
  std::ostringstream json;
  json << "{\"path\": " << JsonString(path) << ", \"format\": \""
       << (reader.is_delta() ? io::kDeltaHeaderV2 : io::kSnapshotHeaderV2)
       << "\", \"content_hash\": \""
       << io::HashHex(reader.manifest().ContentHash()) << "\"";
  if (reader.is_delta()) {
    json << ", \"base\": \"" << io::HashHex(reader.base_hash()) << "\"";
  }
  json << ", \"payload_offset\": " << reader.payload_file_offset()
       << ", \"sections\": [";
  for (size_t i = 0; i < reader.manifest().sections.size(); ++i) {
    const io::SectionInfo& s = reader.manifest().sections[i];
    if (i > 0) json << ", ";
    json << "{\"name\": \"" << s.name << "\", \"offset\": " << s.offset
         << ", \"length\": " << s.length << ", \"checksum\": \""
         << io::HashHex(s.checksum) << "\"}";
  }
  json << "]}";
  return json.str();
}

int SnapshotInspect(const std::string& path) {
  Result<io::MappedFile> file = io::MappedFile::Open(path);
  if (!file.ok()) return Fail(file.status());
  Result<io::SnapshotReader> reader =
      io::SnapshotReader::ParseView(file.value().view());
  if (!reader.ok()) return Fail(reader.status());
  std::printf("%s\n", ManifestJson(path, reader.value()).c_str());
  return 0;
}

int SnapshotVerify(const std::string& path) {
  Result<io::MappedFile> file = io::MappedFile::Open(path);
  if (!file.ok()) return Fail(file.status());
  const std::string_view bytes = file.value().view();
  Result<io::SnapshotReader> reader = io::SnapshotReader::ParseView(bytes);
  if (!reader.ok()) return Fail(reader.status());
  // Per-section checksums first: a corrupt artifact is reported by
  // failing section name + offset, not as a generic load error.
  const Status verified = reader.value().VerifyAll();
  if (!verified.ok()) return Fail(verified);
  const size_t sections = reader.value().manifest().sections.size();
  if (reader.value().is_delta()) {
    std::printf("%s: ok (%zu sections, delta on base %s)\n", path.c_str(),
                sections, io::HashHex(reader.value().base_hash()).c_str());
    return 0;
  }
  // Checksums say the bytes are intact; a full load of the same bytes
  // says the sections also make semantic sense together.
  Result<FalccModel> model = FalccModel::LoadBytes(bytes);
  if (!model.ok()) return Fail(model.status());
  std::printf("%s: ok (%zu sections, content hash %s, full load)\n",
              path.c_str(), sections,
              io::HashHex(reader.value().manifest().ContentHash()).c_str());
  return 0;
}

int SnapshotDiff(const std::string& path_a, const std::string& path_b) {
  Result<io::MappedFile> file_a = io::MappedFile::Open(path_a);
  if (!file_a.ok()) return Fail(file_a.status());
  Result<io::MappedFile> file_b = io::MappedFile::Open(path_b);
  if (!file_b.ok()) return Fail(file_b.status());
  Result<io::SnapshotReader> a =
      io::SnapshotReader::ParseView(file_a.value().view());
  if (!a.ok()) return Fail(a.status());
  Result<io::SnapshotReader> b =
      io::SnapshotReader::ParseView(file_b.value().view());
  if (!b.ok()) return Fail(b.status());

  const uint64_t hash_a = a.value().manifest().ContentHash();
  const uint64_t hash_b = b.value().manifest().ContentHash();
  std::printf("a: %s (%s)\n", path_a.c_str(), io::HashHex(hash_a).c_str());
  std::printf("b: %s (%s)\n", path_b.c_str(), io::HashHex(hash_b).c_str());
  if (b.value().is_delta()) {
    std::printf("b is a delta on base %s: %s\n",
                io::HashHex(b.value().base_hash()).c_str(),
                b.value().base_hash() == hash_a ? "applies to a"
                                                : "does NOT apply to a");
  }

  size_t differing = 0;
  for (const io::SectionInfo& sa : a.value().manifest().sections) {
    const io::SectionInfo* sb = b.value().manifest().Find(sa.name);
    if (sb == nullptr) {
      std::printf("  - %s (only in a: %llu bytes)\n", sa.name.c_str(),
                  static_cast<unsigned long long>(sa.length));
      ++differing;
    } else if (sb->length != sa.length || sb->checksum != sa.checksum) {
      std::printf("  ~ %s (%llu -> %llu bytes, checksum %s -> %s)\n",
                  sa.name.c_str(),
                  static_cast<unsigned long long>(sa.length),
                  static_cast<unsigned long long>(sb->length),
                  io::HashHex(sa.checksum).c_str(),
                  io::HashHex(sb->checksum).c_str());
      ++differing;
    }
  }
  for (const io::SectionInfo& sb : b.value().manifest().sections) {
    if (!a.value().manifest().Has(sb.name)) {
      std::printf("  + %s (only in b: %llu bytes)\n", sb.name.c_str(),
                  static_cast<unsigned long long>(sb.length));
      ++differing;
    }
  }
  if (differing == 0) std::printf("  sections identical\n");
  return 0;
}

int Snapshot(int argc, char** argv) {
  const std::string action = argc >= 3 ? argv[2] : "";
  if (action != "inspect" && action != "verify" && action != "diff") {
    return Fail(Status::InvalidArgument(
        "usage: falcc_cli snapshot <inspect|verify|diff> --model <path> "
        "[--other <path>]"));
  }
  // Shift past the action so Args sees `--model ...` at its usual index.
  const Args args(argc - 1, argv + 1);
  if (!args.status().ok()) return Fail(args.status());
  const Status checked =
      action == "diff"
          ? args.CheckFlags("snapshot diff", {"model", "other"})
          : args.CheckFlags("snapshot " + action, {"model"});
  if (!checked.ok()) return Fail(checked);
  const std::string model = args.Get("model", "");
  if (model.empty()) return Fail(Status::InvalidArgument("--model required"));
  if (action == "inspect") return SnapshotInspect(model);
  if (action == "verify") return SnapshotVerify(model);
  const std::string other = args.Get("other", "");
  if (other.empty()) {
    return Fail(Status::InvalidArgument("snapshot diff needs --other"));
  }
  return SnapshotDiff(model, other);
}

// --- replicate subcommand -----------------------------------------------

/// Lists a feed directory's artifacts in apply order and walks the
/// delta chain exactly as a replica would: checkpoints load, deltas
/// apply to the walked state; base-hash mismatches are reported as
/// chain breaks (the puller's full-reload-fallback trigger) without
/// aborting the walk — the next checkpoint re-anchors it. Exits 1 when
/// any artifact is unreadable, breaks the chain, fails to load or fails
/// to apply: each is something a replica would quarantine.
int ReplicateStatus(const Args& args) {
  const Status flags = args.CheckFlags("replicate status", {"dir"});
  if (!flags.ok()) return Fail(flags);
  const std::string dir = args.Get("dir", "");
  if (dir.empty()) return Fail(Status::InvalidArgument("--dir required"));
  replicate::DirectoryFeed feed(dir);
  Result<std::vector<replicate::FeedEntry>> polled = feed.Poll(0);
  if (!polled.ok()) return Fail(polled.status());
  const std::vector<replicate::FeedEntry>& entries = polled.value();

  std::optional<FalccModel> state;  // the walked replica state
  uint64_t head_hash = 0;
  size_t checkpoints = 0, deltas = 0, unreadable = 0, breaks = 0;
  size_t load_failures = 0, apply_failures = 0;
  std::printf("sequence,kind,bytes,base,status,path\n");
  for (const replicate::FeedEntry& entry : entries) {
    std::string kind, base, status;
    switch (entry.kind) {
      case replicate::ArtifactKind::kFull: {
        kind = "full";
        ++checkpoints;
        Result<FalccModel> loaded = FalccModel::LoadMapped(entry.path);
        const Result<uint64_t> hash =
            loaded.ok() ? loaded.value().ContentHash()
                        : Result<uint64_t>(loaded.status());
        if (hash.ok()) {
          state.emplace(std::move(loaded).value());
          head_hash = hash.value();
          status = "ok " + io::HashHex(head_hash);
        } else {
          status = "load failed";
          ++load_failures;
        }
        break;
      }
      case replicate::ArtifactKind::kDelta: {
        kind = "delta";
        ++deltas;
        base = io::HashHex(entry.base_hash);
        if (!state.has_value()) {
          status = "no base yet";
        } else if (entry.base_hash != head_hash) {
          status = "CHAIN BREAK (walked state is " + io::HashHex(head_hash) +
                   ")";
          ++breaks;
        } else {
          Result<io::MappedFile> file = io::MappedFile::Open(entry.path);
          Result<FalccModel> next =
              file.ok() ? state->ApplyDeltaBytes(file.value().view())
                        : Result<FalccModel>(file.status());
          const Result<uint64_t> hash =
              next.ok() ? next.value().ContentHash()
                        : Result<uint64_t>(next.status());
          if (hash.ok()) {
            state.emplace(std::move(next).value());
            head_hash = hash.value();
            status = "ok -> " + io::HashHex(head_hash);
          } else {
            status = "apply failed";
            ++apply_failures;
          }
        }
        break;
      }
      case replicate::ArtifactKind::kUnreadable:
        kind = "unreadable";
        ++unreadable;
        status = "quarantine candidate";
        break;
    }
    std::printf("%llu,%s,%llu,%s,%s,%s\n",
                static_cast<unsigned long long>(entry.sequence), kind.c_str(),
                static_cast<unsigned long long>(entry.bytes), base.c_str(),
                status.c_str(), entry.path.c_str());
  }
  std::fprintf(stderr,
               "%zu artifacts: %zu checkpoints, %zu deltas, %zu unreadable, "
               "%zu chain breaks, %zu load failures, %zu apply failures\n",
               entries.size(), checkpoints, deltas, unreadable, breaks,
               load_failures, apply_failures);
  if (state.has_value()) {
    std::fprintf(stderr, "head: %s\n", io::HashHex(head_hash).c_str());
  } else {
    std::fprintf(stderr, "head: none (no loadable checkpoint)\n");
  }
  return breaks + unreadable + load_failures + apply_failures == 0 ? 0 : 1;
}

/// Push gateway: serves a feed directory over a socket endpoint. An
/// external publisher (a `monitor --delta-dir` on this host, an rsync
/// loop, anything that follows the temp+rename convention) keeps
/// writing artifacts into --dir; this command watches the directory
/// (inotify where available, poll ticks elsewhere) and pushes every new
/// artifact to connected subscribers, who also get catch-up replay of
/// the retained feed on SUBSCRIBE. Runs until --duration-s elapses
/// (forever when 0 or unset).
int ReplicateServeFeed(const Args& args) {
  const Status flags = args.CheckFlags(
      "replicate serve-feed", {"dir", "listen", "duration-s", "heartbeat-s"});
  if (!flags.ok()) return Fail(flags);
  const std::string dir = args.Get("dir", "");
  const std::string listen = args.Get("listen", "");
  if (dir.empty() || listen.empty()) {
    return Fail(Status::InvalidArgument("--dir and --listen required"));
  }
  if (!replicate::IsSocketEndpoint(listen)) {
    return Fail(Status::InvalidArgument(
        "--listen must be tcp://host:port or unix://path, got '" + listen +
        "'"));
  }
  const double duration = args.GetDouble("duration-s", 0.0);

  replicate::SocketPublisherOptions options;
  options.listen = listen;
  options.dir = dir;
  options.heartbeat_interval_seconds =
      args.GetDouble("heartbeat-s", options.heartbeat_interval_seconds);
  Result<std::unique_ptr<replicate::SocketPublisher>> publisher =
      replicate::SocketPublisher::Open(std::move(options));
  if (!publisher.ok()) return Fail(publisher.status());
  std::fprintf(stderr, "serving feed %s at %s\n", dir.c_str(),
               publisher.value()->endpoint().c_str());

  replicate::DirectoryWatcher watcher(dir);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration));
  size_t forwarded_total = 0;
  while (duration <= 0.0 || std::chrono::steady_clock::now() < deadline) {
    const Result<size_t> forwarded = publisher.value()->ForwardNewArtifacts();
    if (!forwarded.ok()) {
      // Transient (e.g. the directory briefly unlistable): report and
      // keep serving; subscribers stay connected via heartbeats.
      std::fprintf(stderr, "serve-feed: forward failed: %s\n",
                   forwarded.status().ToString().c_str());
    } else if (forwarded.value() > 0) {
      forwarded_total += forwarded.value();
      std::fprintf(stderr, "serve-feed: forwarded %zu artifacts (%zu total)\n",
                   forwarded.value(), forwarded_total);
    }
    // Inotify wake on a rename-into-place, else a poll tick; either way
    // the loop re-scans, so the fallback only costs latency.
    watcher.Wait(0.5);
  }
  const replicate::SocketPublisherStats stats = publisher.value()->Stats();
  publisher.value()->Close();
  std::fprintf(
      stderr,
      "serve-feed: %llu connections, %llu live pushes, %llu catch-up, "
      "%llu heartbeats, %llu drops to checkpoint, %llu send errors\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.artifacts_sent),
      static_cast<unsigned long long>(stats.catchup_artifacts),
      static_cast<unsigned long long>(stats.heartbeats_sent),
      static_cast<unsigned long long>(stats.drops_to_checkpoint),
      static_cast<unsigned long long>(stats.send_errors));
  return 0;
}

int Replicate(int argc, char** argv) {
  const std::string action = argc >= 3 ? argv[2] : "";
  if (action != "status" && action != "serve-feed") {
    return Fail(Status::InvalidArgument(
        "usage: falcc_cli replicate status --dir <feed-dir> | "
        "replicate serve-feed --dir <feed-dir> --listen <endpoint> "
        "[--duration-s N]"));
  }
  const Args args(argc - 1, argv + 1);
  if (!args.status().ok()) return Fail(args.status());
  if (action == "serve-feed") return ReplicateServeFeed(args);
  return ReplicateStatus(args);
}

int Usage() {
  std::fprintf(stderr,
               "usage: falcc_cli "
               "<generate|train|predict|classify|monitor|audit|inspect|"
               "snapshot|replicate> [--flags]\n"
               "see the header comment of tools/falcc_cli.cc\n");
  return 2;
}

}  // namespace
}  // namespace falcc

int main(int argc, char** argv) {
  if (argc < 2) return falcc::Usage();
  const std::string command = argv[1];
  if (command == "snapshot") return falcc::Snapshot(argc, argv);
  if (command == "replicate") return falcc::Replicate(argc, argv);
  const falcc::Args args(argc, argv);
  if (!args.status().ok()) return falcc::Fail(args.status());
  if (command == "generate") return falcc::Generate(args);
  if (command == "train") return falcc::Train(args);
  if (command == "predict") return falcc::Predict(args);
  if (command == "classify") return falcc::ClassifySamples(args);
  if (command == "monitor") return falcc::Monitor(args);
  if (command == "audit") return falcc::Audit(args);
  if (command == "inspect") return falcc::Inspect(args);
  return falcc::Usage();
}
