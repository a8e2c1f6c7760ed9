#include "testing/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/falcc.h"
#include "data/csv_dataset.h"
#include "ml/serialize.h"
#include "replicate/wire.h"
#include "testing/invariants.h"
#include "testing/mutator.h"
#include "util/csv.h"
#include "util/serialize.h"

namespace falcc {
namespace testing {

namespace {

Status SaveToStringOrError(const FalccModel& model, std::string* out) {
  std::ostringstream buffer;
  FALCC_RETURN_IF_ERROR(model.Save(&buffer));
  *out = buffer.str();
  return Status::OK();
}

Status TextRecordOf(const Classifier& model, std::string* out) {
  std::ostringstream text;
  io::PrepareStream(&text);
  FALCC_RETURN_IF_ERROR(SerializeClassifier(model, &text));
  *out = text.str();
  return Status::OK();
}

}  // namespace

Status FuzzSnapshotLoad(const std::string& data) {
  Result<FalccModel> loaded = FalccModel::LoadBytes(data);
  if (!loaded.ok()) {
    // Clean rejection is the expected outcome for corrupt bytes. The
    // error must carry a message — a blank diagnostic is a bug too.
    if (loaded.status().message().empty()) {
      return Status::Internal("rejection with empty error message");
    }
    return Status::OK();
  }

  // The input was accepted: everything the serving path relies on must
  // now actually hold. A model that loads but then misbehaves is the
  // worst outcome a corrupt artifact can produce.
  const FalccModel& model = loaded.value();
  const size_t width = model.num_features();
  if (width == 0) {
    return Status::Internal("loaded model reports zero features");
  }

  // Probe classification with a few finite width-correct samples.
  std::vector<double> batch;
  const double kProbes[] = {0.0, 1.0, -1.0};
  for (double v : kProbes) {
    for (size_t j = 0; j < width; ++j) batch.push_back(v * (1.0 + 0.25 * j));
  }
  const size_t num_samples = batch.size() / width;
  for (size_t i = 0; i < num_samples; ++i) {
    const std::span<const double> sample(batch.data() + i * width, width);
    FALCC_RETURN_IF_ERROR(model.ValidateSample(sample));
    const double p = model.ClassifyProba(sample);
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::Internal("ClassifyProba outside [0, 1]: " +
                              std::to_string(p));
    }
    const int label = model.Classify(sample);
    if (label != 0 && label != 1) {
      return Status::Internal("Classify returned non-binary label");
    }
  }
  ClassifyRequest request;
  request.features = batch;
  request.num_features = width;
  Result<ClassifyResponse> response = model.ClassifyBatch(request);
  if (!response.ok()) {
    return Status::Internal("ClassifyBatch rejected valid samples: " +
                            response.status().ToString());
  }
  if (response.value().decisions.size() != num_samples) {
    return Status::Internal("ClassifyBatch returned wrong decision count");
  }
  for (size_t i = 0; i < num_samples; ++i) {
    const std::span<const double> sample(batch.data() + i * width, width);
    if (response.value().decisions[i].label != model.Classify(sample)) {
      return Status::Internal("ClassifyBatch disagrees with Classify");
    }
  }

  // Whatever the artifact loaded into, every pool model's kernel must
  // agree bit for bit with its interpreted model on the probes — the
  // models no cluster selects too, since a refresh may pick any of them.
  std::vector<std::string> names(width);
  for (size_t j = 0; j < width; ++j) names[j] = "f" + std::to_string(j);
  Result<Dataset> probe_data =
      Dataset::Create(std::move(names), std::vector<double>(batch), width,
                      std::vector<int>(num_samples, 0), {});
  if (!probe_data.ok()) {
    return Status::Internal("probe dataset rejected: " +
                            probe_data.status().ToString());
  }
  FALCC_RETURN_IF_ERROR(
      CheckKernelsMatchInterpreted(model.pool(), probe_data.value()));

  // Serving the accepted model through the sharded fleet must be
  // routing-invisible: decisions bit-identical to the single-sample
  // loop. Two shards keep the per-iteration thread cost low; the full
  // {1, 2, 8} sweep runs in the invariants/serve test suites.
  const size_t kFuzzShards[] = {2};
  FALCC_RETURN_IF_ERROR(
      CheckShardedMatchesSingleLoop(model, probe_data.value(), kFuzzShards));

  // Save∘Load∘Save must be a fixed point: whatever Load accepted, the
  // round trip is byte-stable (this is what snapshot hot-swap and
  // CloneWithRefreshes lean on).
  std::string first;
  FALCC_RETURN_IF_ERROR(SaveToStringOrError(model, &first));
  Result<FalccModel> reloaded = FalccModel::LoadBytes(first);
  if (!reloaded.ok()) {
    return Status::Internal("Save output does not reload: " +
                            reloaded.status().ToString());
  }
  std::string second;
  FALCC_RETURN_IF_ERROR(SaveToStringOrError(reloaded.value(), &second));
  if (first != second) {
    return Status::Internal("Save -> Load -> Save is not byte-idempotent");
  }
  return Status::OK();
}

Status FuzzDeltaApply(const FalccModel& base, const std::string& data) {
  Result<FalccModel> applied = base.ApplyDeltaBytes(data);
  if (!applied.ok()) {
    if (applied.status().message().empty()) {
      return Status::Internal("rejection with empty error message");
    }
    return Status::OK();
  }

  // The delta was accepted: the result must be a valid serving model
  // that differs from the base only where the delta says so.
  const FalccModel& model = applied.value();
  if (model.num_features() != base.num_features() ||
      model.num_clusters() != base.num_clusters()) {
    return Status::Internal("accepted delta changed the model shape");
  }
  // The result must serve from the base's pool itself, kernels included
  // — that is the incremental-hot-swap guarantee: applying a delta
  // decodes and compiles nothing.
  if (&model.pool() != &base.pool()) {
    return Status::Internal("accepted delta did not share the base's pool");
  }

  // Route the result through the full snapshot contract: probe
  // classifications, kernels ≡ interpreted, sharded ≡ single loop, and
  // the Save∘Load∘Save byte fixed point.
  std::string saved;
  FALCC_RETURN_IF_ERROR(SaveToStringOrError(model, &saved));
  return FuzzSnapshotLoad(saved);
}

Status FuzzPoolDecode(const std::string& data) {
  Result<ModelPool> decoded = ModelPool::DeserializeBinary(data);
  if (!decoded.ok()) {
    if (decoded.status().message().empty()) {
      return Status::Internal("rejection with empty error message");
    }
    return Status::OK();
  }
  std::string first;
  FALCC_RETURN_IF_ERROR(decoded.value().SerializeBinary(&first));
  Result<ModelPool> again = ModelPool::DeserializeBinary(first);
  std::string second;
  if (!again.ok() || !again.value().SerializeBinary(&second).ok() ||
      first != second) {
    return Status::Internal("binary pool encoding is not a fixed point");
  }
  // Each decoded model's text record (the per-model format the goldens
  // pin) must read back to the same record.
  for (size_t m = 0; m < decoded.value().size(); ++m) {
    std::string text;
    FALCC_RETURN_IF_ERROR(TextRecordOf(decoded.value().model(m), &text));
    std::istringstream in(text);
    Result<std::unique_ptr<Classifier>> from_text = DeserializeClassifier(&in);
    std::string text_again;
    if (!from_text.ok() ||
        !TextRecordOf(*from_text.value(), &text_again).ok() ||
        text_again != text) {
      return Status::Internal("decoded model " + std::to_string(m) +
                              " does not round-trip as text");
    }
  }
  return Status::OK();
}

Status FuzzCsvParse(const std::string& data) {
  Result<CsvTable> parsed = ParseCsv(data);
  if (!parsed.ok()) {
    if (parsed.status().message().empty()) {
      return Status::Internal("rejection with empty error message");
    }
    return Status::OK();
  }

  const CsvTable& table = parsed.value();
  if (table.header.empty()) {
    return Status::Internal("accepted CSV with empty header");
  }
  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) {
      return Status::Internal("accepted ragged CSV row");
    }
    for (double v : row) {
      if (!std::isfinite(v)) {
        return Status::Internal("accepted non-finite CSV cell");
      }
    }
  }

  // Dataset construction over the parsed table must never crash; any
  // Status outcome is acceptable (labels may be non-binary etc).
  if (table.header.size() >= 2) {
    DatasetFromCsv(table, table.header.back(), {}).status();
  }

  // Re-serializing and re-parsing preserves the shape and the header
  // exactly (values go through ostream formatting, so only the shape is
  // byte-stable).
  Result<CsvTable> round = ParseCsv(ToCsv(table));
  if (!round.ok()) {
    return Status::Internal("ToCsv output does not re-parse: " +
                            round.status().ToString());
  }
  if (round.value().header != table.header) {
    return Status::Internal("header changed across ToCsv round trip");
  }
  if (round.value().rows.size() != table.rows.size()) {
    return Status::Internal("row count changed across ToCsv round trip");
  }
  return Status::OK();
}

Status FuzzWireFrame(const std::string& data) {
  namespace repl = ::falcc::replicate;
  // One-shot walk: decode frame after frame until the stream rejects or
  // runs out of complete frames.
  std::vector<repl::WireFrame> frames;
  size_t offset = 0;
  while (offset < data.size()) {
    const std::string_view rest = std::string_view(data).substr(offset);
    Result<repl::FrameDecode> decoded = repl::DecodeFrame(rest);
    if (!decoded.ok()) {
      // A reject is fine — a corrupt stream must be dropped — but it
      // has to say why.
      if (decoded.status().message().empty()) {
        return Status::Internal("wire rejection with empty error message");
      }
      break;
    }
    if (!decoded.value().complete) {
      if (decoded.value().consumed != 0) {
        return Status::Internal("incomplete decode claims consumed bytes");
      }
      break;  // a frame prefix: legal tail of any stream
    }
    const size_t consumed = decoded.value().consumed;
    if (consumed < repl::kWireHeaderBytes || consumed > rest.size()) {
      return Status::Internal("DecodeFrame consumed out of range: " +
                              std::to_string(consumed));
    }
    // Anything accepted must round-trip byte-identically: decode must
    // never canonicalize, or redelivery dedup and checksum replay
    // could disagree about what was received.
    const std::string reencoded = repl::EncodeFrame(decoded.value().frame);
    if (std::string_view(reencoded) != rest.substr(0, consumed)) {
      return Status::Internal(
          "decoded frame does not re-encode byte-identically");
    }
    frames.push_back(std::move(decoded.value().frame));
    offset += consumed;
  }

  // The streaming decoder fed one byte at a time must agree exactly —
  // frame boundaries may never depend on recv() chunking.
  repl::FrameDecoder decoder;
  std::vector<repl::WireFrame> streamed;
  bool rejected = false;
  for (const char byte : data) {
    decoder.Append(std::string_view(&byte, 1));
    while (true) {
      Result<std::optional<repl::WireFrame>> next = decoder.Next();
      if (!next.ok()) {
        if (next.status().message().empty()) {
          return Status::Internal("streaming rejection with empty message");
        }
        rejected = true;
        break;
      }
      if (!next.value().has_value()) break;
      streamed.push_back(std::move(*next.value()));
    }
    if (rejected) break;
  }
  if (streamed.size() != frames.size()) {
    return Status::Internal(
        "streaming decoder frame count diverged: " +
        std::to_string(streamed.size()) + " vs " +
        std::to_string(frames.size()));
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    const repl::WireFrame& a = frames[i];
    const repl::WireFrame& b = streamed[i];
    if (a.type != b.type || a.kind != b.kind || a.sequence != b.sequence ||
        a.base_hash != b.base_hash || a.payload != b.payload) {
      return Status::Internal("streaming decoder frame " + std::to_string(i) +
                              " diverged from one-shot decode");
    }
  }
  return Status::OK();
}

Status RunFuzz(const std::vector<std::string>& seeds, const FuzzTarget& target,
               const FuzzOptions& options, FuzzStats* stats) {
  if (seeds.empty()) {
    return Status::InvalidArgument("RunFuzz: no seed inputs");
  }
  FuzzStats local;
  for (size_t i = 0; i < options.iterations; ++i) {
    // A fresh mutator per iteration makes any (seed, i) finding
    // replayable in isolation.
    Mutator mutator(options.seed + i);
    const std::string& base = seeds[i % seeds.size()];
    const std::string input = mutator.Mutate(base, options.max_mutations);
    ++local.iterations;
    const Status verdict = target(input);
    if (!verdict.ok()) {
      ++local.findings;
      if (!options.failure_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.failure_dir, ec);
        std::ofstream out(options.failure_dir + "/finding-" +
                              std::to_string(i) + ".bin",
                          std::ios::binary);
        out << input;
      }
      if (stats != nullptr) *stats = local;
      return Status::Internal("fuzz finding at iteration " +
                              std::to_string(i) + " (seed " +
                              std::to_string(options.seed + i) +
                              "): " + verdict.ToString());
    }
  }
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

size_t FuzzIterationsFromEnv(size_t fallback) {
  const char* env = std::getenv("FALCC_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return fallback;
  return static_cast<size_t>(v);
}

Result<std::vector<std::string>> LoadCorpus(const std::string& dir) {
  std::vector<std::string> inputs;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return inputs;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open corpus file " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    inputs.push_back(buf.str());
  }
  return inputs;
}

}  // namespace testing
}  // namespace falcc
