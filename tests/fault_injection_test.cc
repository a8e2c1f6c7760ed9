// Fault-injection sweeps: every byte offset of a valid snapshot is a
// place where an artifact can be cut short (truncated file). The loader
// must return a clean Status at every one of them, and the serving
// engine must keep answering on its old snapshot whenever a reload hits
// such an artifact. A read error never reaches the loader: the file is
// mapped (or read) whole before LoadBytes sees a byte, or the open fails.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "data/csv_dataset.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "io/snapshot.h"
#include "serve/engine.h"
#include "testing/invariants.h"
#include "util/csv.h"

namespace falcc {
namespace {

// Small splits + aggressively small model options: the sweeps below are
// quadratic in the snapshot size, so the artifact must stay tiny.
TrainValTest TinySplits() {
  SyntheticConfig cfg;
  cfg.num_samples = 160;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, 11).value();
}

FalccModel TrainTinyModel(uint64_t seed) {
  const TrainValTest s = TinySplits();
  FalccOptions opt;
  opt.seed = seed;
  opt.fixed_k = 2;
  opt.trainer.estimator_grid = {2};
  opt.trainer.depth_grid = {1};
  opt.trainer.pool_size = 2;
  return FalccModel::Train(s.train, s.validation, opt).value();
}

std::string Snapshot(const FalccModel& model) {
  std::string bytes;
  EXPECT_TRUE(testing::SaveToString(model, &bytes).ok());
  return bytes;
}

// Probes a loaded model with one valid sample; any abort or non-finite
// output here means a fault produced a half-initialized model.
void ProbeModel(const FalccModel& model) {
  const std::vector<double> sample(model.num_features(), 0.5);
  const double p = model.ClassifyProba(sample);
  EXPECT_TRUE(p >= 0.0 && p <= 1.0) << "probability " << p;
}

TEST(FaultInjectionTest, LoadSurvivesTruncationAtEveryByte) {
  const std::string bytes = Snapshot(TrainTinyModel(42));
  size_t loads = 0;
  for (size_t off = 0; off <= bytes.size(); ++off) {
    const Result<FalccModel> r =
        FalccModel::LoadBytes(std::string_view(bytes).substr(0, off));
    if (r.ok()) {
      // Only the full-length artifact loads: the manifest fixes the
      // payload length and every section is required.
      ++loads;
      ProbeModel(r.value());
    } else {
      EXPECT_FALSE(r.status().message().empty()) << "offset " << off;
    }
  }
  EXPECT_EQ(loads, 1u);  // exactly the full-length artifact loads
}

TEST(FaultInjectionTest, CsvReadSurvivesTruncationAtEveryByte) {
  // The CSV reader slurps the whole stream first, so a truncated file is
  // simply a shorter CSV — every prefix must parse or reject cleanly.
  const TrainValTest s = TinySplits();
  CsvTable table = DatasetToCsv(s.test, "label");
  const std::string bytes = ToCsv(table);
  for (size_t off = 0; off <= bytes.size(); ++off) {
    const Result<CsvTable> r = ParseCsv(bytes.substr(0, off));
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty()) << "offset " << off;
    }
  }
}

TEST(FaultInjectionTest, ReloadKeepsServingAcrossPrefixSweep) {
  // Engine serving model A; an operator tries to hot-swap to model B but
  // the new file is cut short at every possible offset. The engine must
  // never stop serving, and must serve exactly the model the last
  // *successful* reload installed.
  const FalccModel a = TrainTinyModel(42);
  const FalccModel b = TrainTinyModel(43);
  const std::string b_bytes = Snapshot(b);

  const TrainValTest s = TinySplits();
  std::vector<double> probe;
  const size_t kProbeRows = 8;
  for (size_t i = 0; i < kProbeRows; ++i) {
    const auto row = s.test.Row(i);
    probe.insert(probe.end(), row.begin(), row.end());
  }
  ClassifyRequest request;
  request.features = probe;
  request.num_features = s.test.num_features();

  serve::FalccEngine engine;
  engine.Install(TrainTinyModel(42));

  // Decisions the engine is expected to produce: those of the last
  // successfully installed snapshot (A until the full length of B
  // loads; no shorter prefix does).
  std::vector<SampleDecision> expected =
      a.ClassifyBatch(request).value().decisions;

  const std::string path = ::testing::TempDir() + "/falcc-reload-sweep.bin";
  size_t swaps = 0;
  for (size_t off = 0; off <= b_bytes.size(); ++off) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.good());
      out << b_bytes.substr(0, off);
    }
    const uint64_t version_before = engine.snapshot_version();
    const Status reload = engine.ReloadMapped(path);
    if (reload.ok()) {
      ++swaps;
      EXPECT_EQ(engine.snapshot_version(), version_before + 1);
      const Result<FalccModel> direct =
          testing::LoadFromString(b_bytes.substr(0, off));
      ASSERT_TRUE(direct.ok()) << "offset " << off;
      expected = direct.value().ClassifyBatch(request).value().decisions;
    } else {
      EXPECT_EQ(engine.snapshot_version(), version_before);
      EXPECT_FALSE(reload.message().empty()) << "offset " << off;
    }

    // Serving is never interrupted and always reflects the expected
    // snapshot, bit for bit.
    const Result<ClassifyResponse> served = engine.ClassifyBatch(request);
    ASSERT_TRUE(served.ok()) << "offset " << off << ": "
                             << served.status().ToString();
    ASSERT_EQ(served.value().decisions.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const SampleDecision& got = served.value().decisions[i];
      const SampleDecision& want = expected[i];
      ASSERT_TRUE(got.label == want.label &&
                  got.probability == want.probability &&
                  got.cluster == want.cluster && got.group == want.group &&
                  got.model == want.model)
          << "offset " << off << " sample " << i;
    }
  }
  EXPECT_GE(swaps, 1u);  // the full-length file must swap in
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, PerSectionCorruptionNamesTheSectionAndKeepsServing) {
  // One flipped byte in each v2 section's payload: the load must fail
  // citing exactly that section (incremental validation), and an engine
  // mid-reload must keep serving its current snapshot.
  const FalccModel model = TrainTinyModel(42);
  const std::string bytes = Snapshot(model);
  const Result<io::SnapshotReader> reader = io::SnapshotReader::ParseView(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const size_t payload = reader.value().payload_file_offset();

  serve::FalccEngine engine;
  engine.Install(TrainTinyModel(42));
  const std::vector<double> probe(model.num_features(), 0.5);
  const std::string path = ::testing::TempDir() + "/falcc-section-corrupt.bin";

  ASSERT_FALSE(reader.value().manifest().sections.empty());
  for (const io::SectionInfo& section : reader.value().manifest().sections) {
    ASSERT_GT(section.length, 0u) << section.name;
    std::string corrupt = bytes;
    corrupt[payload + section.offset + section.length / 2] ^= 0x01;

    const Result<FalccModel> direct = testing::LoadFromString(corrupt);
    ASSERT_FALSE(direct.ok()) << section.name;
    EXPECT_NE(direct.status().message().find("'" + section.name + "'"),
              std::string::npos)
        << section.name << ": " << direct.status().message();

    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << corrupt;
    }
    const uint64_t version = engine.snapshot_version();
    EXPECT_FALSE(engine.ReloadMapped(path).ok()) << section.name;
    EXPECT_EQ(engine.snapshot_version(), version) << section.name;
    ClassifyRequest request;
    request.features = probe;
    request.num_features = probe.size();
    EXPECT_TRUE(engine.ClassifyBatch(request).ok()) << section.name;
  }
  std::remove(path.c_str());
}

TEST(FaultInjectionTest, DeltaFaultsNeverKillAServingEngine) {
  // Wrong-base, mutated, and truncated deltas must all reject cleanly
  // while the engine keeps serving; only the valid delta swaps.
  const FalccModel a = TrainTinyModel(42);
  const FalccModel b = TrainTinyModel(43);

  serve::FalccEngine engine;

  // No snapshot installed yet: a delta has nothing to apply to.
  EXPECT_EQ(engine.ApplyDeltaBytes("falcc-delta-v2\n").code(),
            StatusCode::kUnavailable);

  engine.Install(TrainTinyModel(42));
  const std::vector<double> probe(a.num_features(), 0.5);

  // A delta built against B's content hash, fired at an engine serving A.
  std::ostringstream wrong;
  const size_t clusters[] = {0};
  ASSERT_TRUE(b.SaveDelta(&wrong, clusters, b.ContentHash().value()).ok());
  const uint64_t version = engine.snapshot_version();
  const Status rejected = engine.ApplyDeltaBytes(wrong.str());
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.snapshot_version(), version);

  // Every prefix of a valid delta: reject cleanly or apply; serving
  // never pauses either way.
  std::ostringstream valid;
  const uint64_t base_hash =
      engine.snapshot()->ContentHash().value();
  ASSERT_TRUE(a.SaveDelta(&valid, clusters, base_hash).ok());
  const std::string delta = valid.str();
  size_t applied = 0;
  for (size_t off = 0; off <= delta.size(); ++off) {
    const Status st = engine.ApplyDeltaBytes(delta.substr(0, off));
    if (st.ok()) {
      ++applied;
    } else {
      EXPECT_FALSE(st.message().empty()) << "offset " << off;
    }
    ClassifyRequest request;
    request.features = probe;
    request.num_features = probe.size();
    EXPECT_TRUE(engine.ClassifyBatch(request).ok()) << "offset " << off;
  }
  EXPECT_GE(applied, 1u);  // the full delta must apply
}

}  // namespace
}  // namespace falcc
