// The sectioned snapshot stack (src/io + the FalccModel v2 API): writer
// and reader round trips, per-section checksums, delta artifacts,
// zero-copy mapped loads, and the serve-layer SnapshotSource dispatch.

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
#include "serve/snapshot_source.h"

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

  const Result<io::SnapshotReader> reader =
      io::SnapshotReader::Parse(out.str());
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
  const Result<io::SnapshotReader> reader = io::SnapshotReader::Parse(corrupt);
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
  for (const size_t keep : {0u, 5u, 20u}) {
    EXPECT_FALSE(io::SnapshotReader::Parse(bytes.substr(0, keep)).ok());
  }
  EXPECT_FALSE(
      io::SnapshotReader::Parse(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(io::SnapshotReader::Parse(bytes + "x").ok());
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
  EXPECT_EQ(model.save_format(), SnapshotFormat::kV2);
  const std::string bytes = SaveBytes(model);
  std::istringstream in(bytes);
  const Result<FalccModel> loaded = FalccModel::Load(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().save_format(), SnapshotFormat::kV2);
  EXPECT_EQ(SaveBytes(loaded.value()), bytes);
}

TEST(SnapshotV2Test, ContentHashIgnoresTheDerivedFlatSection) {
  FalccModel with_kernels = TrainTinyModel(42);
  ASSERT_TRUE(with_kernels.has_compiled_kernels());
  const uint64_t hash = with_kernels.ContentHash().value();

  FalccModel without = TrainTinyModel(42);
  without.ClearCompiledKernels();
  ASSERT_FALSE(without.has_compiled_kernels());
  EXPECT_EQ(without.ContentHash().value(), hash);

  // And the artifacts genuinely differ (one carries flat, one doesn't),
  // while loading to the same decisions.
  const std::string bytes_with = SaveBytes(with_kernels);
  const std::string bytes_without = SaveBytes(without);
  EXPECT_NE(bytes_with, bytes_without);
  std::istringstream in(bytes_without);
  const Result<FalccModel> reloaded = FalccModel::Load(&in);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  // The loader recompiles when flat is absent; the recompiled save must
  // reproduce the kernel-carrying artifact bit for bit (canonical slots).
  EXPECT_EQ(SaveBytes(reloaded.value()), bytes_with);
}

TEST(SnapshotV2Test, MappedLoadIsBitIdenticalToStreamLoad) {
  const FalccModel model = TrainTinyModel(42);
  const std::string path = ::testing::TempDir() + "/falcc-mapped-model.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  const Result<FalccModel> streamed = FalccModel::LoadFromFile(path);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  const Result<FalccModel> mapped = FalccModel::LoadMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  const std::vector<double> probe = ProbeRows(model, 16);
  ExpectSameDecisions(Decide(streamed.value(), probe),
                      Decide(mapped.value(), probe));
  ExpectSameDecisions(Decide(model, probe), Decide(mapped.value(), probe));
  EXPECT_EQ(SaveBytes(mapped.value()), SaveBytes(streamed.value()));
  std::remove(path.c_str());
}

TEST(SnapshotV2Test, MappedLoadFallsBackForV1Artifacts) {
  const FalccModel model = TrainTinyModel(42);
  const std::string path = ::testing::TempDir() + "/falcc-v1-model.falcc";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(model.Save(&out, SnapshotFormat::kV1).ok());
  }
  const Result<FalccModel> loaded = FalccModel::LoadMapped(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<double> probe = ProbeRows(model, 8);
  ExpectSameDecisions(Decide(model, probe), Decide(loaded.value(), probe));
  std::remove(path.c_str());
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

  // The applied model shares the base's compiled pool: nothing compiles.
  EXPECT_EQ(applied.value().compiled_pool(), model.compiled_pool());
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

  std::istringstream in(SaveBytes(clone.value()));
  const Result<FalccModel> reloaded = FalccModel::Load(&in);
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
  std::istringstream in(delta.str());
  EXPECT_FALSE(FalccModel::Load(&in).ok());
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

TEST(SnapshotSourceTest, DispatchesFullMappedAndDeltaLoads) {
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
  serve::SnapshotSourceOptions sopt;
  sopt.prefer_mmap = true;
  serve::SnapshotSource source(&engine, sopt);

  Result<serve::SnapshotLoadKind> kind = source.Load(full_path);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(kind.value(), serve::SnapshotLoadKind::kMapped);
  const std::shared_ptr<const FalccModel> before = engine.snapshot();
  ASSERT_NE(before, nullptr);

  kind = source.Load(delta_path);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(kind.value(), serve::SnapshotLoadKind::kDelta);
  const std::shared_ptr<const FalccModel> after = engine.snapshot();

  // Incremental hot-swap: the delta's snapshot keeps serving the mapped
  // snapshot's kernels pointer-identically.
  EXPECT_NE(after, before);
  EXPECT_EQ(after->compiled_pool(), before->compiled_pool());

  const std::vector<double> probe = ProbeRows(model, 8);
  ExpectSameDecisions(Decide(next.value(), probe), Decide(*after, probe));

  // Garbage headers fail without touching the engine.
  const std::string junk_path = dir + "/falcc-source-junk.falcc";
  {
    std::ofstream out(junk_path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot\n";
  }
  const uint64_t version = engine.snapshot_version();
  EXPECT_FALSE(source.Load(junk_path).ok());
  EXPECT_EQ(engine.snapshot_version(), version);

  std::remove(full_path.c_str());
  std::remove(delta_path.c_str());
  std::remove(junk_path.c_str());
}

TEST(SnapshotSourceTest, WorksAgainstAShardedEngine) {
  const FalccModel model = TrainTinyModel(42);
  const std::string path = ::testing::TempDir() + "/falcc-sharded-full.falcc";
  ASSERT_TRUE(model.SaveToFile(path).ok());

  serve::ShardedEngineOptions sopt;
  sopt.num_shards = 2;
  serve::ShardedEngine engine(sopt);
  serve::SnapshotSource source(&engine);
  const Result<serve::SnapshotLoadKind> kind = source.Load(path);
  ASSERT_TRUE(kind.ok()) << kind.status().ToString();
  EXPECT_EQ(kind.value(), serve::SnapshotLoadKind::kFull);

  const std::vector<double> sample(model.num_features(), 0.5);
  const Result<SampleDecision> decision = engine.Classify(sample);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision.value().label, model.Classify(sample));
  engine.Shutdown();
  std::remove(path.c_str());
}

TEST(SnapshotSourceTest, EngineInstallCachesTheManifest) {
  serve::FalccEngine engine;
  engine.Install(TrainTinyModel(42));
  // The manifest (and so the content hash) is frozen into the snapshot
  // at install time — delta application never recomputes it.
  ASSERT_TRUE(engine.snapshot()->manifest().has_value());
}

}  // namespace
}  // namespace falcc
