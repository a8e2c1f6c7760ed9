// Deterministic fuzz harness over the snapshot loader, CSV parser, and
// socket-feed wire codec.
//
// Two layers, matching how the corpus workflow runs:
//  * FuzzCorpusTest — replays every checked-in regression input from
//    tests/corpus/ through the target contracts. Always runs in plain
//    ctest, so a loader fix can never regress silently.
//  * FuzzSmokeTest — the seeded mutation loop (label `fuzz`). Default
//    budget keeps plain ctest fast; `tools/check.sh --fuzz-only` runs it
//    under ASan/UBSan with FALCC_FUZZ_ITERS=10000 per target.

#include "testing/fuzz.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/falcc.h"
#include "data/csv_dataset.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "io/snapshot.h"
#include "ml/logistic_regression.h"
#include "replicate/wire.h"
#include "testing/invariants.h"
#include "util/csv.h"

namespace falcc {
namespace {

using testing::FuzzCsvParse;
using testing::FuzzIterationsFromEnv;
using testing::FuzzOptions;
using testing::FuzzSnapshotLoad;
using testing::FuzzStats;
using testing::FuzzWireFrame;
using testing::LoadCorpus;
using testing::RunFuzz;

// A tiny trained model: the structure-aware seed every snapshot
// mutation starts from. Small on purpose — mutation cost is linear in
// the seed size and the interesting structure is all near the front.
const FalccModel& TinyModel() {
  static const FalccModel* model = [] {
    SyntheticConfig cfg;
    cfg.num_samples = 160;
    cfg.seed = 7;
    const Dataset d = GenerateImplicitBias(cfg).value();
    const TrainValTest s = SplitDatasetDefault(d, 11).value();
    FalccOptions opt;
    opt.seed = 42;
    opt.fixed_k = 2;
    opt.trainer.estimator_grid = {2};
    opt.trainer.depth_grid = {1};
    opt.trainer.pool_size = 2;
    return new FalccModel(
        FalccModel::Train(s.train, s.validation, opt).value());
  }();
  return *model;
}

// The model in the sectioned v2 container (the default save format for
// trained models).
const std::string& TinySnapshot() {
  static const std::string* bytes = [] {
    std::string out;
    EXPECT_TRUE(testing::SaveToString(TinyModel(), &out).ok());
    return new std::string(out);
  }();
  return *bytes;
}

std::string ReadCorpusFile(const std::string& name) {
  std::ifstream in(std::string(FALCC_CORPUS_DIR) + "/snapshot/" + name,
                   std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The checked-in seeds in the legacy v1 text format, which is read but
// no longer written: valid-full.txt carries the optional monitor
// section, valid-legacy.txt is the oldest layout without it and
// exercises the end-of-stream path.
std::string V1Snapshot() { return ReadCorpusFile("valid-full.txt"); }
std::string LegacySnapshot() { return ReadCorpusFile("valid-legacy.txt"); }

// A valid one-cluster delta against TinyModel's content hash: the
// structure-aware seed for delta mutation.
const std::string& TinyDelta() {
  static const std::string* bytes = [] {
    std::ostringstream out;
    const Result<uint64_t> hash = TinyModel().ContentHash();
    EXPECT_TRUE(hash.ok());
    const size_t clusters[] = {0};
    EXPECT_TRUE(
        TinyModel().SaveDelta(&out, clusters, hash.ValueOr(0)).ok());
    return new std::string(out.str());
  }();
  return *bytes;
}

// A valid frame stream covering every wire frame type: the structure-
// aware seed for wire mutation.
std::string WireSeedStream() {
  using replicate::ArtifactKind;
  using replicate::EncodeFrame;
  using replicate::FrameType;
  using replicate::WireFrame;
  std::string out;
  WireFrame hello;
  hello.type = FrameType::kHello;
  hello.sequence = 4;
  hello.payload = replicate::kWireGreeting;
  out += EncodeFrame(hello);
  WireFrame subscribe;
  subscribe.type = FrameType::kSubscribe;
  subscribe.sequence = 2;
  out += EncodeFrame(subscribe);
  WireFrame full;
  full.type = FrameType::kArtifact;
  full.kind = ArtifactKind::kFull;
  full.sequence = 2;
  full.payload = "full-snapshot-bytes";
  out += EncodeFrame(full);
  WireFrame delta;
  delta.type = FrameType::kArtifact;
  delta.kind = ArtifactKind::kDelta;
  delta.sequence = 3;
  delta.base_hash = 0x1234abcdull;
  delta.payload = "delta-bytes";
  out += EncodeFrame(delta);
  WireFrame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.sequence = 3;
  out += EncodeFrame(heartbeat);
  WireFrame eof;
  eof.type = FrameType::kEof;
  out += EncodeFrame(eof);
  return out;
}

std::string TinyCsv() {
  SyntheticConfig cfg;
  cfg.num_samples = 24;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return ToCsv(DatasetToCsv(d, "label"));
}

std::vector<std::string> CorpusOrDie(const std::string& subdir) {
  Result<std::vector<std::string>> corpus =
      LoadCorpus(std::string(FALCC_CORPUS_DIR) + "/" + subdir);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return corpus.ok() ? std::move(corpus).value() : std::vector<std::string>{};
}

TEST(FuzzCorpusTest, SnapshotCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("snapshot");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/snapshot is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzSnapshotLoad(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, DeltaCorpusReplaysClean) {
  // Delta findings replay against the deterministic tiny model. Entries
  // whose base hash no longer matches are still exercised — a clean
  // wrong-base rejection is inside the contract.
  const std::vector<std::string> corpus = CorpusOrDie("delta");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/delta is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = testing::FuzzDeltaApply(TinyModel(), corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, CsvCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("csv");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/csv is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzCsvParse(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, WireCorpusReplaysClean) {
  const std::vector<std::string> corpus = CorpusOrDie("wire");
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/wire is missing";
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Status st = FuzzWireFrame(corpus[i]);
    EXPECT_TRUE(st.ok()) << "corpus input " << i << ": " << st.ToString();
  }
}

TEST(FuzzCorpusTest, ValidSeedsPassTheContracts) {
  // The unmutated seeds themselves must satisfy the accept-side checks;
  // otherwise every smoke finding would be noise.
  EXPECT_TRUE(FuzzSnapshotLoad(TinySnapshot()).ok());
  EXPECT_TRUE(FuzzSnapshotLoad(V1Snapshot()).ok());
  EXPECT_TRUE(FuzzSnapshotLoad(LegacySnapshot()).ok());
  EXPECT_TRUE(testing::FuzzDeltaApply(TinyModel(), TinyDelta()).ok());
  EXPECT_TRUE(FuzzCsvParse(TinyCsv()).ok());
  EXPECT_TRUE(FuzzWireFrame(WireSeedStream()).ok());
}

TEST(SnapshotRegressionTest, ZeroLengthSnapshotIsRejected) {
  const Result<FalccModel> r = testing::LoadFromString("");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.status().message().empty());
}

TEST(SnapshotRegressionTest, GarbagePrefixIsRejected) {
  for (const std::string prefix :
       {std::string("garbage "), std::string("\x00\xff\x7f", 3),
        std::string("falcc-model-v2\n")}) {
    const Result<FalccModel> r =
        testing::LoadFromString(prefix + TinySnapshot());
    ASSERT_FALSE(r.ok()) << "prefix '" << prefix << "'";
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(SnapshotRegressionTest, MidSectionTruncationsReturnDescriptiveErrors) {
  const std::string& bytes = TinySnapshot();
  // A cut anywhere strictly inside the mandatory sections must produce a
  // descriptive error, never an abort or a silently half-loaded model.
  for (const size_t denom : {16u, 8u, 4u, 3u, 2u}) {
    const std::string cut = bytes.substr(0, bytes.size() / denom);
    const Result<FalccModel> r = testing::LoadFromString(cut);
    ASSERT_FALSE(r.ok()) << "cut at " << cut.size();
    EXPECT_FALSE(r.status().message().empty()) << "cut at " << cut.size();
  }
}

// v1 is read but no longer written. Each checked-in v1 seed loads and
// saves as a v2 snapshot, and from there Save → Load → Save is a byte
// fixed point whose manifest hash is the content hash the model
// reports. The migrated model keeps the seed's baselines (or their
// absence) and decides exactly like the v1 original.
TEST(SnapshotRegressionTest, V1SnapshotsMigrateToV2OnSave) {
  for (const bool with_monitor : {true, false}) {
    SCOPED_TRACE(with_monitor ? "valid-full.txt" : "valid-legacy.txt");
    const Result<FalccModel> v1 = testing::LoadFromString(
        with_monitor ? V1Snapshot() : LegacySnapshot());
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    EXPECT_EQ(v1.value().has_baseline_losses(), with_monitor);
    std::string saved;
    ASSERT_TRUE(testing::SaveToString(v1.value(), &saved).ok());
    EXPECT_TRUE(saved.starts_with(std::string(io::kSnapshotHeaderV2) + "\n"));

    const Result<FalccModel> v2 = testing::LoadFromString(saved);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    std::string again;
    ASSERT_TRUE(testing::SaveToString(v2.value(), &again).ok());
    EXPECT_EQ(again, saved);
    const Result<io::SnapshotReader> reader =
        io::SnapshotReader::ParseView(saved);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value().manifest().ContentHash(),
              v1.value().ContentHash().value());
    EXPECT_EQ(v2.value().ContentHash().value(),
              v1.value().ContentHash().value());
    EXPECT_EQ(v2.value().baseline_losses(), v1.value().baseline_losses());

    const size_t width = v1.value().num_features();
    std::vector<double> probe;
    for (size_t i = 0; i < 24; ++i) {
      for (size_t j = 0; j < width; ++j) {
        probe.push_back(0.25 * static_cast<double>((i * 3 + j) % 11) - 1.0);
      }
    }
    const ClassifyRequest request{probe, width};
    const ClassifyResponse a = v1.value().ClassifyBatch(request).value();
    const ClassifyResponse b = v2.value().ClassifyBatch(request).value();
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (size_t i = 0; i < a.decisions.size(); ++i) {
      EXPECT_EQ(a.decisions[i].probability, b.decisions[i].probability) << i;
      EXPECT_EQ(a.decisions[i].cluster, b.decisions[i].cluster) << i;
      EXPECT_EQ(a.decisions[i].model, b.decisions[i].model) << i;
    }
  }
}

// Three checked-in v2 seeds hold the same model: valid-v2.txt with a text
// pool and a legacy "falcc-f2" flat section, valid-v2-flat-f3.txt with a
// text pool and a "falcc-f3" flat section, and valid-v2-pool-p1.txt with
// the binary pool and no flat section. All three load from bytes in
// memory and from a file mapping to identical decisions (flat sections
// are skipped, kernels compile from the pool), and re-saving any of them
// yields the binary seed byte for byte, under the content hash the model
// reports.
TEST(SnapshotRegressionTest, LegacyAndCurrentFlatSectionsLoadBothWays) {
  const std::string dir = std::string(FALCC_CORPUS_DIR) + "/snapshot/";
  const std::string current = ReadCorpusFile("valid-v2-pool-p1.txt");
  const Result<io::SnapshotReader> current_reader =
      io::SnapshotReader::ParseView(current);
  ASSERT_TRUE(current_reader.ok()) << current_reader.status().ToString();
  const uint64_t current_hash = current_reader.value().manifest().ContentHash();
  std::optional<ClassifyResponse> reference;
  for (const char* name :
       {"valid-v2.txt", "valid-v2-flat-f3.txt", "valid-v2-pool-p1.txt"}) {
    SCOPED_TRACE(name);
    const Result<FalccModel> from_bytes =
        FalccModel::LoadBytes(ReadCorpusFile(name));
    ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
    const Result<FalccModel> mapped = FalccModel::LoadMapped(dir + name);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_TRUE(mapped.value().has_compiled_kernels());

    const size_t width = from_bytes.value().num_features();
    std::vector<double> probe;
    for (size_t i = 0; i < 40; ++i) {
      for (size_t j = 0; j < width; ++j) {
        probe.push_back(0.125 * static_cast<double>((i * 5 + j * 3) % 17) -
                        1.0);
      }
    }
    const ClassifyRequest request{probe, width};
    const ClassifyResponse a =
        from_bytes.value().ClassifyBatch(request).value();
    const ClassifyResponse b = mapped.value().ClassifyBatch(request).value();
    if (!reference.has_value()) reference = a;
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    ASSERT_EQ(a.decisions.size(), reference->decisions.size());
    for (size_t i = 0; i < a.decisions.size(); ++i) {
      EXPECT_EQ(a.decisions[i].probability, b.decisions[i].probability) << i;
      EXPECT_EQ(a.decisions[i].model, b.decisions[i].model) << i;
      EXPECT_EQ(a.decisions[i].probability,
                reference->decisions[i].probability)
          << i;
      EXPECT_EQ(a.decisions[i].model, reference->decisions[i].model) << i;
    }
    // The identity a loaded model reports (the base hash of every delta
    // it publishes) is that of the artifact it saves.
    for (const FalccModel* model : {&from_bytes.value(), &mapped.value()}) {
      std::string saved;
      ASSERT_TRUE(testing::SaveToString(*model, &saved).ok());
      EXPECT_EQ(saved, current);
      EXPECT_EQ(model->ContentHash().value(), current_hash);
    }
  }
}

// The checked-in corruptions of the binary pool carry valid checksums,
// so they reach the pool decoder, which must reject each one for the
// reason its name gives.
TEST(SnapshotRegressionTest, BinaryPoolCorruptionsAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"v2-pool-truncated-nodes.txt", "truncated node arrays"},
      {"v2-pool-node-count-overflow.txt", "truncated node arrays"},
      {"v2-pool-backward-edge.txt", "node cycle"},
      {"v2-pool-nan-threshold.txt", "non-finite"},
      {"v2-pool-proba-above-one.txt", "non-finite"},
  };
  for (const auto& [name, reason] : cases) {
    const Result<FalccModel> r =
        testing::LoadFromString(ReadCorpusFile(name));
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_NE(r.status().message().find(reason), std::string::npos)
        << name << ": " << r.status().message();
  }
}

TEST(SnapshotRegressionTest, CorruptedSectionIsNamedInTheError) {
  // Flipping one payload byte inside a v2 section must fail checksum
  // verification with the section's name and offset in the message —
  // incremental validation is the operator's first triage tool.
  const std::string& bytes = TinySnapshot();
  const Result<io::SnapshotReader> reader =
      io::SnapshotReader::ParseView(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const io::SectionInfo* pool = reader.value().manifest().Find("pool");
  ASSERT_NE(pool, nullptr);
  std::string corrupt = bytes;
  corrupt[reader.value().payload_file_offset() + pool->offset +
          pool->length / 2] ^= 0x20;
  const Result<FalccModel> r = testing::LoadFromString(corrupt);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("'pool'"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().message();
}

TEST(SnapshotRegressionTest, DeltaOnWrongBaseIsRejected) {
  // A delta names its base by content hash; applying it to any other
  // snapshot must fail cleanly, citing both hashes.
  const std::string& delta = TinyDelta();
  const Result<FalccModel> other = testing::LoadFromString(LegacySnapshot());
  ASSERT_TRUE(other.ok());
  const Result<FalccModel> applied = other.value().ApplyDeltaBytes(delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(applied.status().message().find("content hash"),
            std::string::npos)
      << applied.status().message();
}

TEST(SnapshotRegressionTest, DeltaFedToLoadIsRedirected) {
  // Load on a delta artifact cannot succeed (there is no base), but the
  // error must say what the input was and where it goes instead.
  const Result<FalccModel> r = testing::LoadFromString(TinyDelta());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("delta"), std::string::npos)
      << r.status().message();
}

TEST(FuzzSmokeTest, SnapshotLoad) {
  std::vector<std::string> seeds = {TinySnapshot(), V1Snapshot(),
                                    LegacySnapshot()};
  for (std::string& input : CorpusOrDie("snapshot")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0x5eedf00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-snapshot";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzSnapshotLoad, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

// The `pool` section payload of every v2 seed that has a binary pool,
// plus a pool holding a text-record model, as seeds for the decoder.
std::vector<std::string> BinaryPoolSeeds() {
  std::vector<std::string> snapshots = {TinySnapshot()};
  for (std::string& input : CorpusOrDie("snapshot")) {
    snapshots.push_back(std::move(input));
  }
  std::vector<std::string> pools;
  for (const std::string& bytes : snapshots) {
    const Result<io::SnapshotReader> reader =
        io::SnapshotReader::ParseView(bytes);
    if (!reader.ok() || !reader.value().manifest().Has("pool")) continue;
    const Result<std::string_view> pool = reader.value().ReadSection("pool");
    if (pool.ok() && ModelPool::IsBinary(pool.value())) {
      pools.emplace_back(pool.value());
    }
  }
  SyntheticConfig cfg;
  cfg.num_samples = 60;
  cfg.seed = 7;
  auto logistic = std::make_unique<LogisticRegression>();
  EXPECT_TRUE(logistic->Fit(GenerateImplicitBias(cfg).value()).ok());
  ModelPool mixed;
  mixed.Add(TinyModel().pool().model(0).Clone(), {1});
  mixed.Add(std::move(logistic));
  std::string bytes;
  EXPECT_TRUE(mixed.SerializeBinary(&bytes).ok());
  pools.push_back(std::move(bytes));
  return pools;
}

TEST(FuzzSmokeTest, BinaryPoolDecode) {
  const std::vector<std::string> seeds = BinaryPoolSeeds();
  ASSERT_GE(seeds.size(), 3u);
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(testing::FuzzPoolDecode(seed).ok());
  }
  FuzzOptions options;
  options.seed = 0x9001f00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-pool";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, testing::FuzzPoolDecode, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, DeltaApply) {
  std::vector<std::string> seeds = {TinyDelta()};
  for (std::string& input : CorpusOrDie("delta")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0xde17af00d;
  options.iterations = FuzzIterationsFromEnv(500);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-delta";
  FuzzStats stats;
  const FalccModel& base = TinyModel();
  const Status st = RunFuzz(
      seeds,
      [&base](const std::string& data) {
        return testing::FuzzDeltaApply(base, data);
      },
      options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, WireFrame) {
  std::vector<std::string> seeds = {WireSeedStream()};
  for (std::string& input : CorpusOrDie("wire")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0x3142f00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-wire";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzWireFrame, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

TEST(FuzzSmokeTest, CsvParse) {
  std::vector<std::string> seeds = {TinyCsv()};
  for (std::string& input : CorpusOrDie("csv")) {
    seeds.push_back(std::move(input));
  }
  FuzzOptions options;
  options.seed = 0xc57f00d;
  options.iterations = FuzzIterationsFromEnv(2000);
  options.failure_dir = ::testing::TempDir() + "/falcc-fuzz-csv";
  FuzzStats stats;
  const Status st = RunFuzz(seeds, FuzzCsvParse, options, &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.iterations, options.iterations);
}

}  // namespace
}  // namespace falcc
