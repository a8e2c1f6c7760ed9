// The sectioned snapshot stack (src/io + the FalccModel v2 API): writer
// and reader round trips, per-section checksums, delta artifacts,
// mapped and in-memory loads, and engine reloads and delta applies.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "io/mapped_file.h"
#include "io/snapshot.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"

namespace falcc {
namespace {

// --- container layer ---------------------------------------------------

TEST(SnapshotWriterTest, RoundTripsSectionsWithAlignedOffsets) {
  std::ostringstream out;
  io::SnapshotWriter writer(&out);
  *writer.BeginSection("alpha") << "first payload";
  ASSERT_TRUE(writer.EndSection().ok());
  *writer.BeginSection("beta") << std::string(3, '\0') << "binary\x01";
  ASSERT_TRUE(writer.EndSection().ok());
  io::SnapshotManifest manifest;
  ASSERT_TRUE(writer.Finish(&manifest).ok());

  ASSERT_EQ(manifest.sections.size(), 2u);
  EXPECT_EQ(manifest.sections[0].name, "alpha");
  EXPECT_EQ(manifest.sections[1].name, "beta");
  EXPECT_EQ(manifest.sections[0].offset % 8, 0u);
  EXPECT_EQ(manifest.sections[1].offset % 8, 0u);

  const std::string bytes = out.str();
  const Result<io::SnapshotReader> reader =
      io::SnapshotReader::ParseView(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.value().is_delta());
  EXPECT_EQ(reader.value().payload_file_offset() % 8, 0u);
  const Result<std::string_view> alpha =
      reader.value().ReadSection("alpha");
  ASSERT_TRUE(alpha.ok());
  EXPECT_EQ(alpha.value(), "first payload");
  const Result<std::string_view> beta = reader.value().ReadSection("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(beta.value(), std::string(3, '\0') + "binary\x01");
  EXPECT_TRUE(reader.value().VerifyAll().ok());
  EXPECT_EQ(reader.value().manifest().ContentHash(), manifest.ContentHash());
}

TEST(SnapshotWriterTest, EmptyAndMalformedUsagesError) {
  {
    std::ostringstream out;
    io::SnapshotWriter writer(&out);
    EXPECT_FALSE(writer.Finish().ok());  // no sections
  }
  {
    std::ostringstream out;
    io::SnapshotWriter writer(&out);
    writer.BeginSection("a");
    EXPECT_FALSE(writer.Finish().ok());  // open section
  }
  {
    std::ostringstream out;
    io::SnapshotWriter writer(&out);
    writer.BeginSection("BAD NAME");
    EXPECT_FALSE(writer.EndSection().ok());
  }
}

TEST(SnapshotReaderTest, ChecksumFailureNamesSectionAndOffset) {
  std::ostringstream out;
  io::SnapshotWriter writer(&out);
  *writer.BeginSection("pool") << "some payload bytes";
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Finish().ok());

  std::string corrupt = out.str();
  corrupt[corrupt.size() - 3] ^= 0x40;
  const Result<io::SnapshotReader> reader =
      io::SnapshotReader::ParseView(corrupt);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();  // manifest intact
  const Result<std::string_view> section =
      reader.value().ReadSection("pool");
  ASSERT_FALSE(section.ok());
  EXPECT_NE(section.status().message().find("'pool'"), std::string::npos)
      << section.status().message();
  EXPECT_NE(section.status().message().find("offset"), std::string::npos);
  EXPECT_FALSE(reader.value().VerifyAll().ok());
}

TEST(SnapshotReaderTest, TruncatedManifestAndPayloadAreRejected) {
  std::ostringstream out;
  io::SnapshotWriter writer(&out);
  *writer.BeginSection("only") << "0123456789";
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Finish().ok());
  const std::string bytes = out.str();
  const std::string_view view = bytes;
  for (const size_t keep : {0u, 5u, 20u}) {
    EXPECT_FALSE(io::SnapshotReader::ParseView(view.substr(0, keep)).ok());
  }
  EXPECT_FALSE(
      io::SnapshotReader::ParseView(view.substr(0, view.size() - 1)).ok());
  const std::string extended = bytes + "x";
  EXPECT_FALSE(io::SnapshotReader::ParseView(extended).ok());
}

TEST(MappedFileTest, MapsBytesAndRejectsMissing) {
  const std::string path = ::testing::TempDir() + "/falcc-mapped-file.bin";
  const std::string payload = "mapped contents\x00with binary";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
  }
  Result<io::MappedFile> mapped = io::MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().view(), payload);
  EXPECT_FALSE(io::MappedFile::Open(path + ".does-not-exist").ok());
  std::remove(path.c_str());
}

// --- model layer -------------------------------------------------------

FalccModel TrainTinyModel(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_samples = 160;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  const TrainValTest s = SplitDatasetDefault(d, 11).value();
  FalccOptions opt;
  opt.seed = seed;
  opt.fixed_k = 2;
  opt.trainer.estimator_grid = {2};
  opt.trainer.depth_grid = {1};
  opt.trainer.pool_size = 2;
  return FalccModel::Train(s.train, s.validation, opt).value();
}

std::string SaveBytes(const FalccModel& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(&out).ok());
  return out.str();
}

std::vector<double> ProbeRows(const FalccModel& model, size_t rows) {
  std::vector<double> flat;
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < model.num_features(); ++j) {
      flat.push_back(0.25 * static_cast<double>(i) -
                     0.5 * static_cast<double>(j % 3));
    }
  }
  return flat;
}

std::vector<SampleDecision> Decide(const FalccModel& model,
                                   const std::vector<double>& flat) {
  ClassifyRequest request;
  request.features = flat;
  request.num_features = model.num_features();
  return model.ClassifyBatch(request).value().decisions;
}

void ExpectSameDecisions(const std::vector<SampleDecision>& a,
                         const std::vector<SampleDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_EQ(a[i].probability, b[i].probability) << i;
    EXPECT_EQ(a[i].cluster, b[i].cluster) << i;
    EXPECT_EQ(a[i].group, b[i].group) << i;
    EXPECT_EQ(a[i].model, b[i].model) << i;
  }
}

TEST(SnapshotV2Test, SaveLoadSaveIsByteIdentical) {
  const FalccModel model = TrainTinyModel(42);
  const std::string bytes = SaveBytes(model);
  const Result<FalccModel> loaded = FalccModel::LoadBytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SaveBytes(loaded.value()), bytes);
  // A v2 load caches the artifact's own manifest as the model identity.
  ASSERT_TRUE(loaded.value().manifest().has_value());
  EXPECT_EQ(loaded.value().manifest()->ContentHash(),
            model.ContentHash().value());
}

// Kernels are derived state and never reach the artifact: the pool
// section holds exactly the model records SerializeBinary writes, and a
// pool decoded from it lowers the same kernels again.
TEST(SnapshotV2Test, CompiledKernelsNeverReachTheArtifact) {
  const FalccModel model = TrainTinyModel(42);
  ASSERT_NE(model.pool().kernel(0), nullptr);
  const std::string bytes = SaveBytes(model);
  const io::SnapshotReader reader =
      io::SnapshotReader::ParseView(bytes).value();
  std::string records;
  ASSERT_TRUE(model.pool().SerializeBinary(&records).ok());
  const std::string_view pool_section = reader.ReadSection("pool").value();
  EXPECT_EQ(pool_section, records);

  const ModelPool decoded =
      ModelPool::DeserializeBinary(pool_section).value();
  ASSERT_EQ(decoded.size(), model.pool().size());
  for (size_t m = 0; m < decoded.size(); ++m) {
    const CompiledEnsemble* trained = model.pool().kernel(m);
    const CompiledEnsemble* loaded = decoded.kernel(m);
    ASSERT_EQ(loaded != nullptr, trained != nullptr);
    if (loaded == nullptr) continue;
    EXPECT_EQ(loaded->num_nodes(), trained->num_nodes());
    EXPECT_EQ(loaded->num_trees(), trained->num_trees());
  }
}

TEST(SnapshotV2Test, MappedLoadIsBitIdenticalToByteLoad) {
  const FalccModel model = TrainTinyModel(42);
  const std::string path = ::testing::TempDir() + "/falcc-mapped-model.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  const Result<FalccModel> from_bytes = FalccModel::LoadBytes(SaveBytes(model));
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
  const Result<FalccModel> mapped = FalccModel::LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<double> probe = ProbeRows(model, 16);
  ExpectSameDecisions(Decide(from_bytes.value(), probe),
                      Decide(mapped.value(), probe));
  ExpectSameDecisions(Decide(model, probe), Decide(mapped.value(), probe));
  EXPECT_EQ(SaveBytes(mapped.value()), SaveBytes(from_bytes.value()));
  std::remove(path.c_str());
}

// The checked-in snapshot seed loads to the same model from a file
// mapping as from bytes in memory, and both save it back byte for byte
// under the content hash of the seed's manifest: the identity a loaded
// model reports (the base hash of every delta it publishes) is that of
// the artifact it saves.
TEST(SnapshotV2Test, CheckedInSeedLoadsIdenticallyMappedAndFromBytes) {
  const std::string path =
      std::string(FALCC_CORPUS_DIR) + "/snapshot/valid-v2-pool-p1.txt";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  ASSERT_TRUE(
      bytes.str().starts_with(std::string(io::kSnapshotHeaderV2) + "\n"));

  const Result<FalccModel> from_bytes = FalccModel::LoadBytes(bytes.str());
  ASSERT_TRUE(from_bytes.ok()) << from_bytes.status().ToString();
  const Result<FalccModel> mapped = FalccModel::LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<double> probe = ProbeRows(mapped.value(), 16);
  ExpectSameDecisions(Decide(from_bytes.value(), probe),
                      Decide(mapped.value(), probe));
  EXPECT_EQ(from_bytes.value().baseline_losses(),
            mapped.value().baseline_losses());
  const uint64_t seed_hash =
      io::SnapshotReader::ParseView(bytes.str()).value().manifest()
          .ContentHash();
  for (const FalccModel* model : {&from_bytes.value(), &mapped.value()}) {
    EXPECT_EQ(SaveBytes(*model), bytes.str());
    EXPECT_EQ(model->ContentHash().value(), seed_hash);
  }
}

// Re-emits `bytes` (a snapshot or a delta) with combo.0's baseline line
// replaced by the `none` tag that models without baselines once wrote.
std::string WithNoneTaggedCombo0(const std::string& bytes) {
  const io::SnapshotReader reader =
      io::SnapshotReader::ParseView(bytes).value();
  std::ostringstream out;
  io::SnapshotWriter writer(&out);
  if (reader.is_delta()) writer.SetDeltaBase(reader.base_hash());
  for (const io::SectionInfo& section : reader.manifest().sections) {
    std::string payload(reader.ReadSection(section.name).value());
    if (section.name == "combo.0") {
      payload = payload.substr(0, payload.find("baseline")) + "none\n";
    }
    EXPECT_TRUE(writer.AddSection(section.name, std::move(payload)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return out.str();
}

// Every combo section ends in its cluster's baseline L̂, in a snapshot
// and in a delta alike; a `none` tag is rejected, naming the section.
TEST(SnapshotV2Test, NoneTaggedComboSectionsAreRejected) {
  const FalccModel model = TrainTinyModel(42);
  const Result<FalccModel> loaded =
      FalccModel::LoadBytes(WithNoneTaggedCombo0(SaveBytes(model)));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(
                "section 'combo.0' lacks its baseline"),
            std::string::npos)
      << loaded.status().message();

  std::ostringstream delta;
  const size_t clusters[] = {0};
  ASSERT_TRUE(
      model.SaveDelta(&delta, clusters, model.ContentHash().value()).ok());
  const Result<FalccModel> applied =
      model.ApplyDeltaBytes(WithNoneTaggedCombo0(delta.str()));
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.status().message().find(
                "section 'combo.0' lacks its baseline"),
            std::string::npos)
      << applied.status().message();
}

TEST(SnapshotDeltaTest, DeltaMatchesCloneWithRefreshes) {
  const FalccModel model = TrainTinyModel(42);
  ASSERT_GE(model.num_clusters(), 2u);

  // A refresh that actually changes cluster 0's combination.
  ModelCombination changed = model.selected_combinations()[0];
  changed[0] = (changed[0] + 1) % model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = changed;
  refresh.baseline_loss = 0.25;
  const Result<FalccModel> clone = model.CloneWithRefreshes({&refresh, 1});
  ASSERT_TRUE(clone.ok()) << clone.status().ToString();

  std::ostringstream delta;
  const size_t clusters[] = {0};
  ASSERT_TRUE(clone.value()
                  .SaveDelta(&delta, clusters, model.ContentHash().value())
                  .ok());
  // The delta is one combo section, not a full artifact.
  EXPECT_LT(delta.str().size(), SaveBytes(model).size() / 4);

  const Result<FalccModel> applied = model.ApplyDeltaBytes(delta.str());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(SaveBytes(applied.value()), SaveBytes(clone.value()));
  EXPECT_EQ(applied.value().ContentHash().value(),
            clone.value().ContentHash().value());

  // The applied model shares the base's pool, kernels included: nothing
  // decodes or compiles.
  EXPECT_EQ(&applied.value().pool(), &model.pool());
}

TEST(SnapshotDeltaTest, IncrementalManifestMatchesFullRecompute) {
  // CloneWithRefreshes updates the cached manifest in place; its content
  // hash must equal the hash of a from-scratch serialization.
  FalccModel model = TrainTinyModel(42);
  ASSERT_TRUE(model.EnsureManifest().ok());
  ModelCombination changed = model.selected_combinations()[0];
  changed[0] = (changed[0] + 1) % model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = changed;
  refresh.baseline_loss = 0.25;
  const Result<FalccModel> clone = model.CloneWithRefreshes({&refresh, 1});
  ASSERT_TRUE(clone.ok());
  const uint64_t incremental = clone.value().ContentHash().value();

  const Result<FalccModel> reloaded =
      FalccModel::LoadBytes(SaveBytes(clone.value()));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().ContentHash().value(), incremental);
}

TEST(SnapshotDeltaTest, WrongAndMissingBasesAreRejected) {
  const FalccModel a = TrainTinyModel(42);
  const FalccModel b = TrainTinyModel(43);
  std::ostringstream delta;
  const size_t clusters[] = {0};
  ASSERT_TRUE(b.SaveDelta(&delta, clusters, b.ContentHash().value()).ok());

  const Result<FalccModel> applied = a.ApplyDeltaBytes(delta.str());
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);

  // Full snapshots are not deltas and vice versa.
  EXPECT_FALSE(a.ApplyDeltaBytes(SaveBytes(a)).ok());
  EXPECT_FALSE(FalccModel::LoadBytes(delta.str()).ok());
}

TEST(SnapshotDeltaTest, SaveDeltaValidatesClusterList) {
  const FalccModel model = TrainTinyModel(42);
  const uint64_t hash = model.ContentHash().value();
  std::ostringstream out;
  const size_t empty[] = {0};
  EXPECT_FALSE(model.SaveDelta(&out, {empty, 0}, hash).ok());
  const size_t oob[] = {model.num_clusters()};
  EXPECT_FALSE(model.SaveDelta(&out, oob, hash).ok());
  const size_t dup[] = {0, 0};
  EXPECT_FALSE(model.SaveDelta(&out, dup, hash).ok());

  // Unsorted input is canonicalized: section order in the artifact is
  // always ascending, so both spellings produce identical bytes.
  std::ostringstream sorted_out, unsorted_out;
  const size_t sorted[] = {0, 1};
  const size_t unsorted[] = {1, 0};
  ASSERT_TRUE(model.SaveDelta(&sorted_out, sorted, hash).ok());
  ASSERT_TRUE(model.SaveDelta(&unsorted_out, unsorted, hash).ok());
  EXPECT_EQ(unsorted_out.str(), sorted_out.str());
}

// --- serve layer -------------------------------------------------------

TEST(EngineSnapshotTest, ReloadsFullSnapshotsAndAppliesDeltas) {
  const FalccModel model = TrainTinyModel(42);
  const std::string dir = ::testing::TempDir();
  const std::string full_path = dir + "/falcc-source-full.falcc";
  const std::string delta_path = dir + "/falcc-source-delta.falcc";
  ASSERT_TRUE(model.SaveToFile(full_path).ok());

  ModelCombination changed = model.selected_combinations()[0];
  changed[0] = (changed[0] + 1) % model.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = 0;
  refresh.combination = changed;
  refresh.baseline_loss = 0.25;
  const Result<FalccModel> next = model.CloneWithRefreshes({&refresh, 1});
  ASSERT_TRUE(next.ok());
  {
    std::ofstream out(delta_path, std::ios::binary | std::ios::trunc);
    const size_t clusters[] = {0};
    ASSERT_TRUE(next.value()
                    .SaveDelta(&out, clusters, model.ContentHash().value())
                    .ok());
  }

  serve::FalccEngine engine;
  const Status reloaded = engine.ReloadMapped(full_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  const std::shared_ptr<const FalccModel> before = engine.snapshot();
  ASSERT_NE(before, nullptr);

  {
    Result<io::MappedFile> delta = io::MappedFile::Open(delta_path);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    const Status applied = engine.ApplyDeltaBytes(delta.value().view());
    ASSERT_TRUE(applied.ok()) << applied.ToString();
  }
  const std::shared_ptr<const FalccModel> after = engine.snapshot();

  // Incremental hot-swap: the delta's snapshot keeps serving the full
  // snapshot's kernels pointer-identically.
  EXPECT_NE(after, before);
  EXPECT_EQ(&after->pool(), &before->pool());

  const std::vector<double> probe = ProbeRows(model, 8);
  ExpectSameDecisions(Decide(next.value(), probe), Decide(*after, probe));

  // Garbage fails without touching the engine, whichever way it comes
  // in; so does a full snapshot handed to the delta path.
  const std::string junk_path = dir + "/falcc-source-junk.falcc";
  {
    std::ofstream out(junk_path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot\n";
  }
  const uint64_t version = engine.snapshot_version();
  EXPECT_FALSE(engine.ReloadMapped(junk_path).ok());
  EXPECT_FALSE(engine.ReloadMapped(delta_path).ok());
  EXPECT_FALSE(engine.ApplyDeltaBytes("not a snapshot\n").ok());
  EXPECT_FALSE(engine.ApplyDeltaBytes(SaveBytes(model)).ok());
  EXPECT_EQ(engine.snapshot_version(), version);

  std::remove(full_path.c_str());
  std::remove(delta_path.c_str());
  std::remove(junk_path.c_str());
}

TEST(EngineSnapshotTest, ReloadsIntoAShardedEngine) {
  const FalccModel model = TrainTinyModel(42);
  const std::string path = ::testing::TempDir() + "/falcc-sharded-full.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  serve::ShardedEngineOptions sopt;
  sopt.num_shards = 2;
  serve::ShardedEngine engine(sopt);
  const Status reloaded = engine.ReloadMapped(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();

  const std::vector<double> sample(model.num_features(), 0.5);
  const Result<SampleDecision> decision = engine.Classify(sample);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision.value().label, model.Classify(sample));
  engine.Shutdown();
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, InstallCachesTheManifest) {
  serve::FalccEngine engine;
  engine.Install(TrainTinyModel(42));
  // The manifest (and so the content hash) is frozen into the snapshot
  // at install time — delta application never recomputes it.
  ASSERT_TRUE(engine.snapshot()->manifest().has_value());
}

}  // namespace
}  // namespace falcc
