// Tests of the delta replication subsystem: feed naming and sniffing,
// publisher sequencing/checkpointing/GC, the puller's in-order and
// out-of-order apply paths, every fault-fallback route (chain break,
// corrupt artifact, persistent gap, deleted checkpoint — the replica
// must never stop serving), redelivery idempotency, late-joiner
// bootstrap, fleet convergence, and the pull-while-classify race the
// TSan stage exercises. The socket transport rides the same harness:
// wire-codec round trips and reject sweeps, the directory watcher,
// socket fleet convergence, and the partition/fault suite (mid-frame
// drops at every byte offset, heartbeat timeouts, slow-subscriber
// drops to the newest checkpoint, subscriber-thread reaping, publisher
// restarts) and the monitor refresher's socket publishing path.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "io/snapshot.h"
#include "monitor/refresher.h"
#include "replicate/dir_watcher.h"
#include "replicate/feed.h"
#include "replicate/fleet.h"
#include "replicate/publisher.h"
#include "replicate/puller.h"
#include "replicate/socket_feed.h"
#include "replicate/wire.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "testing/mutator.h"

namespace falcc {
namespace {

namespace fs = std::filesystem;

using replicate::ArtifactKind;
using replicate::DeltaPublisher;
using replicate::DeltaPublisherOptions;
using replicate::DeltaPuller;
using replicate::DeltaPullerOptions;
using replicate::DeltaPullerStats;
using replicate::DirectoryFeed;
using replicate::FeedEntry;
using replicate::ParseSequence;
using replicate::PublishedArtifact;
using replicate::PublishReport;
using replicate::PullReport;
using replicate::DecodeFrame;
using replicate::DirectoryWatcher;
using replicate::EncodeFrame;
using replicate::FrameDecode;
using replicate::FrameDecoder;
using replicate::FrameType;
using replicate::kWireGreeting;
using replicate::kWireHeaderBytes;
using replicate::kWireMagic;
using replicate::ReplicaFleet;
using replicate::ReplicaFleetOptions;
using replicate::SequencedName;
using replicate::SocketFeed;
using replicate::SocketFeedOptions;
using replicate::SocketFeedStats;
using replicate::SocketPublisher;
using replicate::SocketPublisherOptions;
using replicate::SocketPublisherStats;
using replicate::WireFrame;

TrainValTest MakeSplits(uint64_t seed = 11, size_t n = 2000) {
  SyntheticConfig cfg;
  cfg.num_samples = n;
  cfg.seed = 7;
  const Dataset d = GenerateImplicitBias(cfg).value();
  return SplitDatasetDefault(d, seed).value();
}

FalccOptions FastOptions() {
  FalccOptions opt;
  opt.seed = 42;
  opt.trainer.estimator_grid = {5};
  opt.trainer.depth_grid = {1, 4};
  opt.trainer.pool_size = 3;
  opt.fixed_k = 4;
  return opt;
}

/// One training run for the whole binary; every test deserializes its
/// own copy (FalccModel is move-only, engines own their snapshots).
const std::string& SharedModelBytes() {
  static const std::string* bytes = [] {
    const TrainValTest s = MakeSplits();
    const FalccModel model =
        FalccModel::Train(s.train, s.validation, FastOptions()).value();
    auto* out = new std::string;
    std::ostringstream buffer;
    FALCC_CHECK(model.Save(&buffer).ok(), "test: model save failed");
    *out = buffer.str();
    return out;
  }();
  return *bytes;
}

FalccModel FreshModel() {
  return FalccModel::LoadBytes(SharedModelBytes()).value();
}

/// The version after `base`: one cluster's combination rotated to the
/// next pool model — exactly the shape of a monitor refresh.
FalccModel NextVersion(const FalccModel& base, size_t cluster) {
  ModelCombination combo = base.selected_combinations()[cluster];
  combo[0] = (combo[0] + 1) % base.pool().size();
  ClusterRefresh refresh;
  refresh.cluster = cluster;
  refresh.combination = combo;
  refresh.baseline_loss = 0.25;
  return base.CloneWithRefreshes({&refresh, 1}).value();
}

uint64_t HashOf(const FalccModel& model) { return model.ContentHash().value(); }

std::string SaveBytes(const FalccModel& model) {
  std::ostringstream out;
  FALCC_CHECK(model.Save(&out).ok(), "test: save failed");
  return out.str();
}

std::string DeltaBytes(const FalccModel& next, size_t cluster,
                       uint64_t base_hash) {
  std::ostringstream out;
  const size_t clusters[] = {cluster};
  FALCC_CHECK(next.SaveDelta(&out, clusters, base_hash).ok(),
              "test: delta save failed");
  return out.str();
}

std::string FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FALCC_CHECK(static_cast<bool>(out), "test: artifact write failed");
}

/// Puller options tuned for deterministic tests: retry instantly so a
/// recovery test needs no wall-clock sleeps.
DeltaPullerOptions FastPuller() {
  DeltaPullerOptions options;
  options.backoff_initial_seconds = 0.0;
  return options;
}

DeltaPublisher OpenPublisher(const std::string& dir, size_t checkpoint_every) {
  DeltaPublisherOptions options;
  options.dir = dir;
  options.checkpoint_every = checkpoint_every;
  return DeltaPublisher::Open(options).value();
}

/// Feed with test-controlled visibility: artifacts live on disk (the
/// publisher wrote them), but the feed only reports what the test has
/// exposed — simulating replication transports where artifacts arrive
/// late or out of order.
class ScriptedFeed final : public replicate::DeltaFeed {
 public:
  Result<std::vector<FeedEntry>> Poll(uint64_t after_sequence) override {
    std::vector<FeedEntry> out;
    for (const FeedEntry& entry : visible_) {
      if (entry.sequence > after_sequence) out.push_back(entry);
    }
    std::sort(out.begin(), out.end(),
              [](const FeedEntry& a, const FeedEntry& b) {
                return a.sequence < b.sequence;
              });
    return out;
  }

  void Expose(const PublishedArtifact& artifact, uint64_t base_hash = 0) {
    FeedEntry entry;
    entry.sequence = artifact.sequence;
    entry.kind = artifact.kind;
    entry.path = artifact.path;
    entry.bytes = artifact.bytes;
    entry.base_hash = base_hash;
    visible_.push_back(entry);
  }

 private:
  std::vector<FeedEntry> visible_;
};

// --- Feed naming and sniffing ------------------------------------------

TEST(FeedNameTest, SequencedNameZeroPadsSoDirectoryOrderIsApplyOrder) {
  EXPECT_EQ(SequencedName(7, "delta-x.falcc"), "00000007-delta-x.falcc");
  // The motivating bug: plain version numbers sort wrong past 9.
  const std::string v9 = SequencedName(9, "a.falcc");
  const std::string v10 = SequencedName(10, "a.falcc");
  const std::string v100 = SequencedName(100, "a.falcc");
  EXPECT_LT(v9, v10);
  EXPECT_LT(v10, v100);
  // Past the padding width, consumers parse numbers — names still parse.
  EXPECT_EQ(ParseSequence(SequencedName(123456789012ull, "a.falcc")).value(),
            123456789012ull);
}

TEST(FeedNameTest, ParseSequenceRejectsNonConformingNames) {
  EXPECT_EQ(ParseSequence("00000010-delta.falcc").value(), 10u);
  EXPECT_FALSE(ParseSequence("delta.falcc").ok());
  EXPECT_FALSE(ParseSequence("-delta.falcc").ok());
  EXPECT_FALSE(ParseSequence("").ok());
  EXPECT_FALSE(ParseSequence("99999999999999999999999-x.falcc").ok());
}

TEST(DirectoryFeedTest, OrdersSniffsAndSkipsInProgressWrites) {
  const std::string dir = FreshDir("replicate_feed");
  const FalccModel v0 = FreshModel();
  const uint64_t h0 = HashOf(v0);
  const FalccModel v1 = NextVersion(v0, 0);

  // Written shuffled: a garbage artifact, a full snapshot, a delta, a v1
  // file (a format no loader reads), an in-progress `.tmp`, and an
  // unrelated file.
  WriteFile(dir + "/" + SequencedName(5, "v1.falcc"),
            "falcc-model-v1\n0\n2\n");
  WriteFile(dir + "/" + SequencedName(3, "delta.falcc"),
            DeltaBytes(v1, 0, h0));
  WriteFile(dir + "/" + SequencedName(1, "garbage.falcc"), "not a snapshot\n");
  WriteFile(dir + "/" + SequencedName(2, "checkpoint.falcc"), SaveBytes(v0));
  WriteFile(dir + "/" + SequencedName(4, "syncing.falcc") + ".tmp", "partial");
  WriteFile(dir + "/README.md", "not an artifact");

  DirectoryFeed feed(dir);
  const std::vector<FeedEntry> entries = feed.Poll(0).value();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].sequence, 1u);
  EXPECT_EQ(entries[0].kind, ArtifactKind::kUnreadable);
  EXPECT_EQ(entries[1].sequence, 2u);
  EXPECT_EQ(entries[1].kind, ArtifactKind::kFull);
  EXPECT_EQ(entries[2].sequence, 3u);
  EXPECT_EQ(entries[2].kind, ArtifactKind::kDelta);
  EXPECT_EQ(entries[2].base_hash, h0);
  EXPECT_GT(entries[2].bytes, 0u);
  EXPECT_EQ(entries[3].sequence, 5u);
  EXPECT_EQ(entries[3].kind, ArtifactKind::kUnreadable);

  // The cursor filter.
  const std::vector<FeedEntry> tail = feed.Poll(2).value();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].sequence, 3u);
  EXPECT_EQ(tail[1].sequence, 5u);

  // A feed over a missing directory fails the poll, not the process.
  DirectoryFeed missing(dir + "/no-such-subdir");
  EXPECT_FALSE(missing.Poll(0).ok());
}

// The feed sniffs a delta's base line exactly as the loader parses it:
// uppercase hex loads as "malformed base line", so it is no delta.
TEST(DirectoryFeedTest, UppercaseHexBaseLineIsUnreadable) {
  const std::string dir = FreshDir("replicate_feed_upper");
  const FalccModel v0 = FreshModel();
  std::string bytes = DeltaBytes(NextVersion(v0, 0), 0, 0x0123abcdef456789);
  const std::string lower = "\nbase 0123abcdef456789\n";
  const size_t at = bytes.find(lower);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, lower.size(), "\nbase 0123ABCDEF456789\n");
  WriteFile(dir + "/" + SequencedName(1, "delta.falcc"), bytes);

  const std::vector<FeedEntry> entries = DirectoryFeed(dir).Poll(0).value();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, ArtifactKind::kUnreadable);
  EXPECT_FALSE(io::SnapshotReader::ParseView(bytes).ok());
}

// --- Publisher ----------------------------------------------------------

TEST(PublisherTest, SequencesCheckpointsOnCadenceAndGarbageCollects) {
  const std::string dir = FreshDir("replicate_pub");
  DeltaPublisher publisher = OpenPublisher(dir, /*checkpoint_every=*/2);
  EXPECT_EQ(publisher.next_sequence(), 1u);

  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const FalccModel v2 = NextVersion(v1, 1);

  const PublishReport checkpoint =
      publisher.PublishCheckpoint(v0).value();
  ASSERT_EQ(checkpoint.artifacts.size(), 1u);
  EXPECT_EQ(checkpoint.artifacts[0].sequence, 1u);
  EXPECT_EQ(checkpoint.artifacts[0].kind, ArtifactKind::kFull);

  const size_t clusters0[] = {0};
  const PublishReport first =
      publisher.PublishDelta(v1, clusters0, HashOf(v0)).value();
  ASSERT_EQ(first.artifacts.size(), 1u);  // cadence not due yet
  EXPECT_EQ(first.artifacts[0].sequence, 2u);
  EXPECT_EQ(first.artifacts[0].kind, ArtifactKind::kDelta);

  // Second delta trips the cadence: delta + checkpoint of the post-delta
  // state + GC of everything the checkpoint supersedes but that delta,
  // which an in-order replica applies instead of reloading.
  const size_t clusters1[] = {1};
  const PublishReport second =
      publisher.PublishDelta(v2, clusters1, HashOf(v1)).value();
  ASSERT_EQ(second.artifacts.size(), 2u);
  EXPECT_EQ(second.artifacts[0].sequence, 3u);
  EXPECT_EQ(second.artifacts[0].kind, ArtifactKind::kDelta);
  EXPECT_EQ(second.artifacts[1].sequence, 4u);
  EXPECT_EQ(second.artifacts[1].kind, ArtifactKind::kFull);
  EXPECT_EQ(second.gc_removed, 2u);  // sequences 1..2 superseded

  DirectoryFeed feed(dir);
  const std::vector<FeedEntry> remaining = feed.Poll(0).value();
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].sequence, 3u);
  EXPECT_EQ(remaining[0].kind, ArtifactKind::kDelta);
  EXPECT_EQ(remaining[1].sequence, 4u);
  EXPECT_EQ(remaining[1].kind, ArtifactKind::kFull);

  // No half-written artifacts left behind.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  // A restarted publisher resumes the sequence instead of renumbering.
  DeltaPublisher reopened = OpenPublisher(dir, 2);
  EXPECT_EQ(reopened.next_sequence(), 5u);
}

// --- Puller: the happy chain -------------------------------------------

TEST(PullerTest, BootstrapsFromCheckpointAndAppliesDeltasInOrder) {
  const std::string dir = FreshDir("replicate_chain");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const FalccModel v2 = NextVersion(v1, 1);

  publisher.PublishCheckpoint(v0).value();
  const size_t c0[] = {0};
  publisher.PublishDelta(v1, c0, HashOf(v0)).value();
  const size_t c1[] = {1};
  publisher.PublishDelta(v2, c1, HashOf(v1)).value();

  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  EXPECT_FALSE(puller.ServingHash().ok());  // empty replica

  const PullReport report = puller.PollOnce();
  EXPECT_EQ(report.full_reloads, 1u);   // the bootstrap checkpoint
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_FALSE(report.recovery_pending);
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v2));

  // Idle poll: nothing new, nothing churns.
  const uint64_t version = engine.snapshot_version();
  const PullReport idle = puller.PollOnce();
  EXPECT_EQ(idle.entries_seen, 0u);
  EXPECT_EQ(engine.snapshot_version(), version);

  // The replica's decisions are the primary's, bit for bit.
  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const ClassifyRequest request{flat, s.test.num_features()};
  const ClassifyResponse primary = v2.ClassifyBatch(request).value();
  const ClassifyResponse replica = engine.ClassifyBatch(request).value();
  ASSERT_EQ(primary.decisions.size(), replica.decisions.size());
  for (size_t i = 0; i < primary.decisions.size(); ++i) {
    const SampleDecision& p = primary.decisions[i];
    const SampleDecision& r = replica.decisions[i];
    EXPECT_TRUE(p.label == r.label && p.probability == r.probability &&
                p.cluster == r.cluster && p.group == r.group &&
                p.model == r.model)
        << "sample " << i;
  }
}

TEST(PullerTest, ShardedEngineFollowsTheSameFeed) {
  const std::string dir = FreshDir("replicate_sharded");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 2);
  publisher.PublishCheckpoint(v0).value();
  const size_t c2[] = {2};
  publisher.PublishDelta(v1, c2, HashOf(v0)).value();

  serve::ShardedEngineOptions options;
  options.num_shards = 2;
  serve::ShardedEngine engine(options);
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v1));

  const TrainValTest s = MakeSplits();
  for (size_t i = 0; i < std::min<size_t>(s.test.num_rows(), 32); ++i) {
    const SampleDecision d = engine.Classify(s.test.Row(i)).value();
    EXPECT_EQ(d.label, v1.Classify(s.test.Row(i))) << "row " << i;
  }
  engine.Shutdown();
}

// --- Redelivery idempotency --------------------------------------------

TEST(DeltaIdempotencyTest, RedeliveredDeltaIsASuccessNoOp) {
  const FalccModel v0 = FreshModel();
  const uint64_t h0 = HashOf(v0);
  const FalccModel v1 = NextVersion(v0, 0);
  const uint64_t h1 = HashOf(v1);
  ASSERT_NE(h0, h1);
  const std::string delta = DeltaBytes(v1, 0, h0);

  // Model level: first apply advances the hash; the redelivered copy no
  // longer matches the base hash but its sections are already live, so
  // it succeeds as a no-op instead of failing the chain.
  const FalccModel applied = v0.ApplyDeltaBytes(delta).value();
  EXPECT_EQ(HashOf(applied), h1);
  const FalccModel reapplied = applied.ApplyDeltaBytes(delta).value();
  EXPECT_EQ(HashOf(reapplied), h1);

  // A delta that matches neither the base nor the live sections still
  // fails with the chain-break code.
  const FalccModel v2 = NextVersion(v1, 0);
  const Result<FalccModel> wrong =
      v0.ApplyDeltaBytes(DeltaBytes(v2, 0, h1));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);

  // Engine level: the redelivery succeeds without reinstalling (no
  // version churn, snapshot untouched).
  serve::FalccEngine engine;
  engine.Install(FreshModel());
  ASSERT_TRUE(engine.ApplyDeltaBytes(delta).ok());
  const uint64_t version = engine.snapshot_version();
  const std::shared_ptr<const FalccModel> snapshot = engine.snapshot();
  ASSERT_TRUE(engine.ApplyDeltaBytes(delta).ok());
  EXPECT_EQ(engine.snapshot_version(), version);
  EXPECT_EQ(engine.snapshot().get(), snapshot.get());
}

// --- Out-of-order arrivals and gaps ------------------------------------

TEST(PullerTest, BuffersOutOfOrderArrivalsUntilTheGapFills) {
  const std::string dir = FreshDir("replicate_ooo");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const FalccModel v2 = NextVersion(v1, 1);
  const PublishedArtifact a1 =
      publisher.PublishCheckpoint(v0).value().artifacts[0];
  const size_t c0[] = {0};
  const PublishedArtifact a2 =
      publisher.PublishDelta(v1, c0, HashOf(v0)).value().artifacts[0];
  const size_t c1[] = {1};
  const PublishedArtifact a3 =
      publisher.PublishDelta(v2, c1, HashOf(v1)).value().artifacts[0];

  auto feed = std::make_unique<ScriptedFeed>();
  ScriptedFeed* script = feed.get();
  DeltaPullerOptions options = FastPuller();
  options.gap_patience_polls = 10;  // patient: this test never falls back
  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::move(feed), options);

  // Sequence 3 arrives before sequence 2: it waits in the buffer.
  script->Expose(a1);
  script->Expose(a3, HashOf(v1));
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v0));
  EXPECT_EQ(puller.Stats().buffered, 1u);
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v0));

  // The gap fills: both deltas apply in order within one poll.
  script->Expose(a2, HashOf(v0));
  const PullReport report = puller.PollOnce();
  EXPECT_EQ(report.deltas_applied, 2u);
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v2));
  const DeltaPullerStats stats = puller.Stats();
  EXPECT_EQ(stats.gap_fallbacks, 0u);
  EXPECT_EQ(stats.recoveries, 0u);
  EXPECT_EQ(stats.buffered, 0u);
}

// Publishes checkpoint(v0), delta(v0 → v1), then checkpoint(`last`) as
// sequences 1–3, and has a replica consume 1–2 before 3 appears. Returns
// the report of the poll that sees sequence 3; `pool_before` is the pool
// the replica served before it.
PullReport PollCheckpointAfterDelta(const std::string& dir_name,
                                    const FalccModel& v0, const FalccModel& v1,
                                    const FalccModel& last,
                                    serve::FalccEngine* engine,
                                    DeltaPullerStats* stats,
                                    const ModelPool** pool_before) {
  DeltaPublisher publisher = OpenPublisher(FreshDir(dir_name), 0);
  const PublishedArtifact a1 =
      publisher.PublishCheckpoint(v0).value().artifacts[0];
  const size_t c0[] = {0};
  const PublishedArtifact a2 =
      publisher.PublishDelta(v1, c0, HashOf(v0)).value().artifacts[0];
  auto feed = std::make_unique<ScriptedFeed>();
  ScriptedFeed* script = feed.get();
  DeltaPuller puller(engine, std::move(feed), FastPuller());
  script->Expose(a1);
  script->Expose(a2, HashOf(v0));
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v1));
  *pool_before = &engine->snapshot()->pool();
  // Published only now: a checkpoint garbage-collects what it supersedes.
  script->Expose(publisher.PublishCheckpoint(last).value().artifacts[0]);
  const PullReport report = puller.PollOnce();
  *stats = puller.Stats();
  return report;
}

// The checkpoint a publisher writes after a delta has the content hash
// the replica reached by applying that delta: the replica consumes it
// without mapping it and lowering every kernel again, so the snapshot —
// pool and kernels included — is the one it already served.
TEST(PullerTest, InOrderCheckpointOfTheServedSnapshotIsNotReloaded) {
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  serve::FalccEngine engine;
  DeltaPullerStats stats;
  const ModelPool* pool_before = nullptr;
  const PullReport report = PollCheckpointAfterDelta(
      "replicate_same_checkpoint", v0, v1, v1, &engine, &stats, &pool_before);
  EXPECT_EQ(report.full_reloads, 0u);
  EXPECT_EQ(stats.full_reloads, 1u);  // the bootstrap checkpoint only
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_EQ(&engine.snapshot()->pool(), pool_before);
  EXPECT_EQ(engine.snapshot()->ContentHash().value(), HashOf(v1));
}

// An in-order checkpoint with any other content hash still reloads.
TEST(PullerTest, InOrderCheckpointOfAnotherSnapshotReloads) {
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const FalccModel v2 = NextVersion(v1, 1);
  serve::FalccEngine engine;
  DeltaPullerStats stats;
  const ModelPool* pool_before = nullptr;
  const PullReport report = PollCheckpointAfterDelta(
      "replicate_other_checkpoint", v0, v1, v2, &engine, &stats, &pool_before);
  EXPECT_EQ(report.full_reloads, 1u);
  EXPECT_EQ(stats.full_reloads, 2u);
  EXPECT_EQ(stats.last_sequence, 3u);
  EXPECT_NE(&engine.snapshot()->pool(), pool_before);
  EXPECT_EQ(engine.snapshot()->ContentHash().value(), HashOf(v2));
}

// The cadence path end to end: the delta that trips the cadence and its
// checkpoint land in one publish, whose GC keeps that delta, so a live
// replica applies it in order and skips the checkpoint's reload.
TEST(PullerTest, CadenceCheckpointAfterAnAppliedDeltaIsNotReloaded) {
  const std::string dir = FreshDir("replicate_cadence_skip");
  DeltaPublisher publisher = OpenPublisher(dir, /*checkpoint_every=*/1);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  publisher.PublishCheckpoint(v0).value();
  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  puller.PollOnce();  // bootstraps from the checkpoint

  const size_t c0[] = {0};
  const PublishReport published =
      publisher.PublishDelta(v1, c0, HashOf(v0)).value();
  ASSERT_EQ(published.artifacts.size(), 2u);  // delta 2 + checkpoint 3
  EXPECT_EQ(published.gc_removed, 1u);        // checkpoint 1 only
  const PullReport report = puller.PollOnce();
  EXPECT_EQ(report.deltas_applied, 1u);
  EXPECT_EQ(report.full_reloads, 0u);
  EXPECT_EQ(puller.Stats().full_reloads, 1u);  // the bootstrap only
  EXPECT_EQ(puller.Stats().last_sequence, 3u);
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v1));
}

TEST(PullerTest, PersistentGapFallsBackAndCheckpointJumpsIt) {
  const std::string dir = FreshDir("replicate_gap");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const FalccModel v2 = NextVersion(v1, 1);
  const PublishedArtifact a1 =
      publisher.PublishCheckpoint(v0).value().artifacts[0];
  const size_t c0[] = {0};
  publisher.PublishDelta(v1, c0, HashOf(v0)).value();  // sequence 2: lost
  const size_t c1[] = {1};
  const PublishedArtifact a3 =
      publisher.PublishDelta(v2, c1, HashOf(v1)).value().artifacts[0];

  auto feed = std::make_unique<ScriptedFeed>();
  ScriptedFeed* script = feed.get();
  DeltaPullerOptions options = FastPuller();
  options.gap_patience_polls = 1;
  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::move(feed), options);

  // Sequence 2 never arrives; the replica keeps serving v0 throughout.
  script->Expose(a1);
  script->Expose(a3, HashOf(v1));
  for (int i = 0; i < 4; ++i) {
    puller.PollOnce();
    EXPECT_EQ(puller.ServingHash().value(), HashOf(v0)) << "poll " << i;
  }
  EXPECT_GE(puller.Stats().gap_fallbacks, 1u);

  // A checkpoint at the head subsumes the lost delta: the replica jumps
  // the gap and converges.
  const PublishedArtifact a4 =
      publisher.PublishCheckpoint(v2).value().artifacts[0];
  script->Expose(a4);
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v2));
  EXPECT_FALSE(puller.Stats().recovery_pending);
}

// --- Fault injection ----------------------------------------------------

TEST(PullerFaultTest, MutatedDeltaNeverStopsServingAndRecovers) {
  const FalccModel v0 = FreshModel();
  const uint64_t h0 = HashOf(v0);
  const FalccModel v1 = NextVersion(v0, 0);
  const uint64_t h1 = HashOf(v1);
  const std::string delta = DeltaBytes(v1, 0, h0);
  const std::string full0 = SaveBytes(v0);
  const std::string full1 = SaveBytes(v1);

  const TrainValTest s = MakeSplits();
  std::vector<double> probe;
  const size_t probe_rows = std::min<size_t>(s.test.num_rows(), 16);
  for (size_t i = 0; i < probe_rows; ++i) {
    const auto row = s.test.Row(i);
    probe.insert(probe.end(), row.begin(), row.end());
  }
  const ClassifyRequest request{probe, s.test.num_features()};

  testing::Mutator mutator(7);
  for (int iter = 0; iter < 12; ++iter) {
    const std::string dir = FreshDir("replicate_mut");
    WriteFile(dir + "/" + SequencedName(1, "checkpoint.falcc"), full0);
    WriteFile(dir + "/" + SequencedName(2, "delta.falcc"),
              mutator.Mutate(delta));

    serve::FalccEngine engine;
    DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                       FastPuller());
    for (int p = 0; p < 6; ++p) puller.PollOnce();

    // Whatever the mutation did, the replica serves a real snapshot —
    // the base, or (if the mutation happened to be semantically inert)
    // the applied version — and classification works.
    const Result<uint64_t> serving = puller.ServingHash();
    ASSERT_TRUE(serving.ok()) << "iter " << iter;
    EXPECT_TRUE(serving.value() == h0 || serving.value() == h1)
        << "iter " << iter;
    EXPECT_TRUE(engine.ClassifyBatch(request).ok()) << "iter " << iter;

    // A later good checkpoint always repairs the replica.
    WriteFile(dir + "/" + SequencedName(3, "checkpoint-good.falcc"), full1);
    for (int p = 0; p < 6 && puller.ServingHash().value() != h1; ++p) {
      puller.PollOnce();
    }
    EXPECT_EQ(puller.ServingHash().value(), h1) << "iter " << iter;
  }
}

TEST(PullerFaultTest, TruncatedArtifactsFailCleanAndQuarantine) {
  const FalccModel v0 = FreshModel();
  const uint64_t h0 = HashOf(v0);
  const FalccModel v1 = NextVersion(v0, 0);
  const std::string delta = DeltaBytes(v1, 0, h0);
  const std::string full = SaveBytes(v0);

  // Loader sweep: a full snapshot cut short at any offset returns a
  // clean status, never a crash or a partially applied model.
  const size_t step = std::max<size_t>(1, full.size() / 64);
  for (size_t offset = 0; offset < full.size(); offset += step) {
    EXPECT_FALSE(FalccModel::LoadBytes(full.substr(0, offset)).ok())
        << "offset " << offset;
  }
  // Delta prefix sweep: every truncation point is rejected.
  const size_t delta_step = std::max<size_t>(1, delta.size() / 64);
  for (size_t len = 0; len < delta.size(); len += delta_step) {
    EXPECT_FALSE(v0.ApplyDeltaBytes(delta.substr(0, len)).ok())
        << "length " << len;
  }

  // Feed level: a truncated delta artifact is quarantined and the
  // replica keeps serving the checkpoint.
  const std::string dir = FreshDir("replicate_trunc");
  WriteFile(dir + "/" + SequencedName(1, "checkpoint.falcc"), full);
  WriteFile(dir + "/" + SequencedName(2, "delta.falcc"),
            delta.substr(0, delta.size() / 2));
  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  for (int p = 0; p < 4; ++p) puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), h0);
  EXPECT_GE(puller.Stats().quarantined, 1u);
  EXPECT_TRUE(engine.snapshot() != nullptr);
}

TEST(PullerFaultTest, ChainBreakWithDeletedCheckpointKeepsServingUntilRepair) {
  const std::string dir = FreshDir("replicate_deleted");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  const FalccModel v0 = FreshModel();
  const FalccModel v1 = NextVersion(v0, 0);
  const PublishedArtifact checkpoint =
      publisher.PublishCheckpoint(v0).value().artifacts[0];

  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  puller.PollOnce();
  ASSERT_EQ(puller.ServingHash().value(), HashOf(v0));

  // The only checkpoint disappears (operator error, aggressive sync),
  // then a delta arrives whose base is not what we serve: chain break
  // with nothing to recover from.
  fs::remove(checkpoint.path);
  const size_t c0[] = {0};
  publisher.PublishDelta(v1, c0, /*base_hash=*/0x1234abcd).value();
  const PullReport broken = puller.PollOnce();
  EXPECT_GE(broken.chain_breaks, 1u);
  EXPECT_TRUE(broken.recovery_pending);
  // Cardinal rule: still serving the last-good snapshot.
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v0));
  EXPECT_GE(puller.Stats().retries, 1u);

  // A fresh checkpoint repairs the fleet.
  publisher.PublishCheckpoint(v1).value();
  for (int p = 0; p < 4 && puller.Stats().recovery_pending; ++p) {
    puller.PollOnce();
  }
  EXPECT_EQ(puller.ServingHash().value(), HashOf(v1));
  EXPECT_FALSE(puller.Stats().recovery_pending);
  EXPECT_GE(puller.Stats().recoveries, 1u);
}

// --- Late joiner and retention -----------------------------------------

TEST(PullerTest, LateJoinerBootstrapsFromTheRetainedTail) {
  const std::string dir = FreshDir("replicate_late");
  DeltaPublisher publisher = OpenPublisher(dir, /*checkpoint_every=*/2);
  FalccModel head = FreshModel();
  publisher.PublishCheckpoint(head).value();
  size_t published = 1;
  for (size_t i = 0; i < 5; ++i) {
    FalccModel next = NextVersion(head, i % head.num_clusters());
    const size_t clusters[] = {i % head.num_clusters()};
    const PublishReport report =
        publisher.PublishDelta(next, clusters, HashOf(head)).value();
    published += report.artifacts.size();
    head = std::move(next);
  }

  // GC pruned the feed's history: far fewer artifacts remain than were
  // published, yet a late joiner still converges on the head.
  DirectoryFeed feed(dir);
  const size_t remaining = feed.Poll(0).value().size();
  EXPECT_LT(remaining, published);

  serve::FalccEngine engine;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir),
                     FastPuller());
  puller.PollOnce();
  EXPECT_EQ(puller.ServingHash().value(), HashOf(head));
  EXPECT_FALSE(puller.Stats().recovery_pending);
}

// --- Fleet convergence --------------------------------------------------

TEST(FleetTest, ReplicasConvergeToPrimaryWithBitIdenticalDecisions) {
  const std::string dir = FreshDir("replicate_fleet");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  FalccModel head = FreshModel();
  publisher.PublishCheckpoint(head).value();
  const std::string model_path =
      (fs::path(::testing::TempDir()) / "replicate_fleet_v0.falcc").string();
  ASSERT_TRUE(head.SaveToFile(model_path).ok());

  ReplicaFleetOptions options;
  options.num_replicas = 4;
  options.feed_dir = dir;
  options.puller = FastPuller();
  ReplicaFleet fleet(options);
  ASSERT_TRUE(fleet.Bootstrap(model_path).ok());
  fleet.PollAll();  // consume the seed checkpoint
  ASSERT_TRUE(fleet.ConvergedTo(HashOf(head)));

  for (size_t event = 0; event < 3; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    publisher.PublishDelta(next, clusters, HashOf(head)).value();
    head = std::move(next);
    bool converged = false;
    for (int poll = 0; poll < 20 && !converged; ++poll) {
      fleet.PollAll();
      converged = fleet.ConvergedTo(HashOf(head));
    }
    EXPECT_TRUE(converged) << "event " << event;
  }

  // Hash convergence implies decision identity — verify it directly.
  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const ClassifyRequest request{flat, s.test.num_features()};
  const ClassifyResponse primary = head.ClassifyBatch(request).value();
  for (size_t r = 0; r < fleet.size(); ++r) {
    const ClassifyResponse replica =
        fleet.engine(r)->ClassifyBatch(request).value();
    ASSERT_EQ(replica.decisions.size(), primary.decisions.size());
    for (size_t i = 0; i < primary.decisions.size(); ++i) {
      const SampleDecision& p = primary.decisions[i];
      const SampleDecision& d = replica.decisions[i];
      ASSERT_TRUE(p.label == d.label && p.probability == d.probability &&
                  p.cluster == d.cluster && p.group == d.group &&
                  p.model == d.model)
          << "replica " << r << " sample " << i;
    }
  }
}

// --- Concurrency (ThreadSanitizer coverage) ----------------------------

// A replica classifies continuously while its background puller applies
// deltas (lock-free hot-swaps) — the pull-while-classify race.
TEST(PullerConcurrencyTest, BackgroundPullWhileClassifyRace) {
  const std::string dir = FreshDir("replicate_race");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  FalccModel head = FreshModel();
  publisher.PublishCheckpoint(head).value();

  serve::FalccEngine engine;
  engine.Install(FreshModel());

  DeltaPullerOptions options = FastPuller();
  options.poll_interval_seconds = 1e-3;
  DeltaPuller puller(&engine, std::make_unique<DirectoryFeed>(dir), options);
  puller.Start();
  puller.Start();  // idempotent

  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  const size_t rows = std::min<size_t>(s.test.num_rows(), 64);
  for (size_t i = 0; i < rows; ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const size_t width = s.test.num_features();

  std::atomic<bool> stop{false};
  std::thread classifier([&] {
    const ClassifyRequest request{flat, width};
    while (!stop.load(std::memory_order_acquire)) {
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      EXPECT_TRUE(response.ok());
    }
  });

  for (size_t event = 0; event < 5; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    ASSERT_TRUE(
        publisher.PublishDelta(next, clusters, HashOf(head)).ok());
    head = std::move(next);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The background thread converges on the head without manual polls.
  const uint64_t target = HashOf(head);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<uint64_t> serving = puller.ServingHash();
    if (serving.ok() && serving.value() == target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  classifier.join();
  puller.Stop();
  EXPECT_EQ(puller.ServingHash().value(), target);
  EXPECT_EQ(puller.Stats().deltas_applied, 5u);
}

// --- Wire codec --------------------------------------------------------

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

WireFrame HelloFrame(uint64_t next_sequence) {
  WireFrame frame;
  frame.type = FrameType::kHello;
  frame.sequence = next_sequence;
  frame.payload = kWireGreeting;
  return frame;
}

WireFrame SubscribeFrame(uint64_t from) {
  WireFrame frame;
  frame.type = FrameType::kSubscribe;
  frame.sequence = from;
  return frame;
}

WireFrame ArtifactFrame(uint64_t sequence, ArtifactKind kind,
                        std::string payload, uint64_t base_hash = 0) {
  WireFrame frame;
  frame.type = FrameType::kArtifact;
  frame.kind = kind;
  frame.sequence = sequence;
  frame.base_hash = base_hash;
  frame.payload = std::move(payload);
  return frame;
}

/// The wire layout assembled by hand, so tests can express frames
/// EncodeFrame itself refuses to produce.
std::string RawFrame(uint8_t type, uint8_t kind, uint64_t sequence,
                     uint64_t base_hash, const std::string& payload) {
  std::string out;
  const auto put32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  const auto put64 = [&out](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put32(kWireMagic);
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(kind));
  out.push_back(0);
  out.push_back(0);
  put64(sequence);
  put64(base_hash);
  put32(static_cast<uint32_t>(payload.size()));
  put64(io::Fnv1a(payload));
  out += payload;
  return out;
}

TEST(WireCodecTest, EveryFrameTypeRoundTripsByteIdentically) {
  std::vector<WireFrame> frames;
  frames.push_back(HelloFrame(42));
  frames.push_back(SubscribeFrame(7));
  frames.push_back(
      ArtifactFrame(3, ArtifactKind::kDelta, "delta-bytes", 0x1234abcdull));
  frames.push_back(
      ArtifactFrame(4, ArtifactKind::kFull, std::string(1 << 10, '\xab')));
  WireFrame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.sequence = 9;
  frames.push_back(heartbeat);
  WireFrame eof;
  eof.type = FrameType::kEof;
  frames.push_back(eof);

  for (const WireFrame& frame : frames) {
    const std::string bytes = EncodeFrame(frame);
    const Result<FrameDecode> decoded = DecodeFrame(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(decoded.value().complete);
    EXPECT_EQ(decoded.value().consumed, bytes.size());
    const WireFrame& out = decoded.value().frame;
    EXPECT_EQ(out.type, frame.type);
    EXPECT_EQ(out.kind, frame.kind);
    EXPECT_EQ(out.sequence, frame.sequence);
    EXPECT_EQ(out.base_hash, frame.base_hash);
    EXPECT_EQ(out.payload, frame.payload);
    EXPECT_EQ(EncodeFrame(out), bytes);
  }
}

TEST(WireCodecTest, MalformedFramesRejectWithDescriptiveErrors) {
  const std::string valid =
      EncodeFrame(ArtifactFrame(1, ArtifactKind::kDelta, "payload", 5));
  const auto expect_reject = [](const std::string& bytes, const char* what) {
    const Result<FrameDecode> decoded = DecodeFrame(bytes);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_FALSE(decoded.status().message().empty()) << what;
  };
  {
    std::string b = valid;
    b[0] = static_cast<char>(b[0] ^ 0xFF);
    expect_reject(b, "bad magic");
  }
  {
    std::string b = valid;
    b[4] = 0;
    expect_reject(b, "frame type 0");
  }
  {
    std::string b = valid;
    b[4] = 9;
    expect_reject(b, "unknown frame type");
  }
  {
    std::string b = valid;
    b[5] = 3;
    expect_reject(b, "unknown artifact kind");
  }
  {
    std::string b = valid;
    b[6] = 1;
    expect_reject(b, "nonzero reserved bits");
  }
  {
    // A payload-length field past the cap rejects from the header alone,
    // before any attempt to buffer 4 GiB.
    std::string b = valid;
    for (size_t at = 24; at < 28; ++at) b[at] = static_cast<char>(0xFF);
    expect_reject(b, "oversize payload length");
  }
  {
    std::string b = valid;
    b.back() = static_cast<char>(b.back() ^ 0x01);
    expect_reject(b, "payload checksum");
  }
  // Semantically invalid frames with correct checksums.
  expect_reject(RawFrame(3, 0, 1, 0, "x"), "ARTIFACT without a kind");
  expect_reject(RawFrame(3, 1, 1, 5, ""), "empty ARTIFACT payload");
  expect_reject(RawFrame(3, 2, 1, 5, "x"), "base_hash on a full artifact");
  expect_reject(RawFrame(4, 1, 0, 0, ""), "kind on a control frame");
  expect_reject(RawFrame(5, 0, 0, 7, ""), "base_hash on a control frame");
  expect_reject(RawFrame(4, 0, 0, 0, "x"), "payload on a HEARTBEAT");
  expect_reject(RawFrame(2, 0, 0, 0, "x"), "payload on a SUBSCRIBE");
  expect_reject(RawFrame(1, 0, 0, 0, "hi"), "HELLO greeting mismatch");
}

TEST(WireCodecTest, EveryPrefixOfAValidStreamAsksForMoreBytes) {
  std::string stream;
  stream += EncodeFrame(HelloFrame(2));
  stream += EncodeFrame(ArtifactFrame(1, ArtifactKind::kFull, "full-bytes"));
  stream += EncodeFrame(SubscribeFrame(3));
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Append(std::string_view(stream).substr(0, cut));
    size_t frames = 0;
    for (;;) {
      const Result<std::optional<WireFrame>> next = decoder.Next();
      ASSERT_TRUE(next.ok()) << "cut at " << cut << ": "
                             << next.status().ToString();
      if (!next.value().has_value()) break;
      ++frames;
    }
    EXPECT_LE(frames, 3u) << "cut at " << cut;
  }
}

TEST(WireCodecTest, StreamingDecoderMatchesOneShotFrameForFrame) {
  const std::vector<WireFrame> sent = {
      HelloFrame(6),
      ArtifactFrame(4, ArtifactKind::kDelta, "delta-bytes", 0xfeedull),
      ArtifactFrame(5, ArtifactKind::kFull, "full-bytes"),
  };
  std::string stream;
  for (const WireFrame& frame : sent) stream += EncodeFrame(frame);

  FrameDecoder decoder;
  std::vector<WireFrame> received;
  for (char byte : stream) {
    decoder.Append(std::string_view(&byte, 1));
    for (;;) {
      Result<std::optional<WireFrame>> next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next.value().has_value()) break;
      received.push_back(std::move(next).value().value());
    }
  }
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(decoder.buffered(), 0u);
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].type, sent[i].type) << i;
    EXPECT_EQ(received[i].kind, sent[i].kind) << i;
    EXPECT_EQ(received[i].sequence, sent[i].sequence) << i;
    EXPECT_EQ(received[i].base_hash, sent[i].base_hash) << i;
    EXPECT_EQ(received[i].payload, sent[i].payload) << i;
  }
}

TEST(FeedNameTest, SequencedNameWidthExtensionKeepsOrderPastEightDigits) {
  // The regression: without a width marker, "100000000-" sorts before
  // "99999999-" and the feed's apply order silently inverts at the
  // hundred-millionth artifact.
  const std::string last8 = SequencedName(99'999'999ull, "a.falcc");
  const std::string first9 = SequencedName(100'000'000ull, "a.falcc");
  EXPECT_EQ(last8, "99999999-a.falcc");
  EXPECT_EQ(first9, "z100000000-a.falcc");
  EXPECT_LT(last8, first9);
  EXPECT_EQ(ParseSequence(last8).value(), 99'999'999ull);
  EXPECT_EQ(ParseSequence(first9).value(), 100'000'000ull);
  // Strictly ordered across every width boundary the scheme crosses.
  const uint64_t probes[] = {1ull,
                             99'999'999ull,
                             100'000'000ull,
                             999'999'999ull,
                             1'000'000'000ull,
                             123'456'789'012ull};
  for (size_t i = 0; i + 1 < std::size(probes); ++i) {
    const std::string lo = SequencedName(probes[i], "a.falcc");
    const std::string hi = SequencedName(probes[i + 1], "a.falcc");
    EXPECT_LT(lo, hi) << probes[i] << " vs " << probes[i + 1];
    EXPECT_EQ(ParseSequence(lo).value(), probes[i]);
  }
  // Only canonical widths parse: one marker demands exactly nine digits.
  EXPECT_FALSE(ParseSequence("z00000001-a.falcc").ok());
  EXPECT_FALSE(ParseSequence("z1234567890-a.falcc").ok());
}

// --- Directory watcher -------------------------------------------------

TEST(DirectoryWatcherTest, RenameIntoWatchedDirectoryWakesTheWait) {
  const std::string dir = FreshDir("replicate_watch_wake");
  DirectoryWatcher watcher(dir);
  if (!watcher.using_inotify()) GTEST_SKIP() << "inotify unavailable";
  std::thread writer([&dir] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string tmp = dir + "/artifact.tmp";
    WriteFile(tmp, "bytes");
    fs::rename(tmp, dir + "/00000001-a.falcc");
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(watcher.Wait(10.0));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
  writer.join();
  // Once the queued events are drained the watcher quiesces: waits time
  // out instead of spinning on stale events.
  while (watcher.Wait(0.05)) {
  }
  EXPECT_FALSE(watcher.Wait(0.05));
}

TEST(DirectoryWatcherTest, EventBetweenWaitsIsNotLost) {
  const std::string dir = FreshDir("replicate_watch_queued");
  DirectoryWatcher watcher(dir);
  if (!watcher.using_inotify()) GTEST_SKIP() << "inotify unavailable";
  // Nobody is waiting when the artifact lands; the event queues in the
  // kernel and the next Wait returns without sleeping out its timeout.
  WriteFile(dir + "/00000001-a.falcc", "bytes");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(watcher.Wait(10.0));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(DirectoryWatcherTest, EnvOverrideForcesFallbackAndCancelWakes) {
  ::setenv("FALCC_NO_INOTIFY", "1", 1);
  const std::string dir = FreshDir("replicate_watch_fallback");
  DirectoryWatcher watcher(dir);
  ::unsetenv("FALCC_NO_INOTIFY");
  EXPECT_FALSE(watcher.using_inotify());
  // The fallback never reports filesystem events — only timeouts...
  WriteFile(dir + "/00000001-a.falcc", "bytes");
  EXPECT_FALSE(watcher.Wait(0.02));
  // ...and cancellations, which cut a long wait short.
  std::thread canceller([&watcher] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    watcher.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(watcher.Wait(10.0));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
  canceller.join();
}

TEST(DirectoryWatcherTest, WatcherAndPollDrivenPullersConvergeIdentically) {
  const std::string dir = FreshDir("replicate_watch_equiv");
  DeltaPublisher publisher = OpenPublisher(dir, 0);
  FalccModel head = FreshModel();
  publisher.PublishCheckpoint(head).value();

  // Same feed directory, two wake strategies: a watcher-driven puller
  // with a long poll interval, and one forced onto the timed-sleep
  // fallback (the non-Linux and ENOSPC path) with a short one. The feed
  // creates its watcher on the first wait, so that wait runs while the
  // override is set.
  serve::FalccEngine watched_engine;
  DeltaPullerOptions watched_options = FastPuller();
  watched_options.poll_interval_seconds = 0.5;
  DeltaPuller watched(&watched_engine, std::make_unique<DirectoryFeed>(dir),
                      watched_options);

  ::setenv("FALCC_NO_INOTIFY", "1", 1);
  auto polled_feed = std::make_unique<DirectoryFeed>(dir);
  polled_feed->WaitForChange(0.0);
  ::unsetenv("FALCC_NO_INOTIFY");
  ASSERT_FALSE(polled_feed->watching());
  serve::FalccEngine polled_engine;
  DeltaPullerOptions polled_options = FastPuller();
  polled_options.poll_interval_seconds = 1e-3;
  DeltaPuller polled(&polled_engine, std::move(polled_feed), polled_options);

  watched.Start();
  polled.Start();
  for (size_t event = 0; event < 3; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    ASSERT_TRUE(publisher.PublishDelta(next, clusters, HashOf(head)).ok());
    head = std::move(next);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const uint64_t target = HashOf(head);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<uint64_t> a = watched.ServingHash();
    const Result<uint64_t> b = polled.ServingHash();
    if (a.ok() && b.ok() && a.value() == target && b.value() == target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watched.Stop();
  polled.Stop();
  EXPECT_EQ(watched.ServingHash().value(), target);
  EXPECT_EQ(polled.ServingHash().value(), target);
  // The two strategies applied the identical artifact sequence — wakes
  // change latency, never the chain.
  EXPECT_EQ(watched.Stats().deltas_applied, polled.Stats().deltas_applied);
  EXPECT_EQ(watched.Stats().deltas_applied, 3u);
}

// --- Socket transport --------------------------------------------------

std::string SocketPath(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / name;
  fs::remove(path);
  return path.string();
}

int ConnectUnixSocket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FALCC_CHECK(fd >= 0, "test: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  FALCC_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) == 0,
              "test: connect() failed");
  return fd;
}

void SendRaw(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; the test asserts on what arrived
    sent += static_cast<size_t>(n);
  }
}

/// Receives into `decoder` until `want` frames decoded or the deadline
/// passes; returns the decoded frames.
std::vector<WireFrame> RecvFrames(int fd, FrameDecoder* decoder, size_t want,
                                  double timeout_seconds) {
  std::vector<WireFrame> frames;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout_seconds);
  while (frames.size() < want &&
         std::chrono::steady_clock::now() < deadline) {
    for (;;) {
      Result<std::optional<WireFrame>> next = decoder->Next();
      if (!next.ok() || !next.value().has_value()) break;
      frames.push_back(std::move(next).value().value());
    }
    if (frames.size() >= want) break;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder->Append(std::string_view(buf, static_cast<size_t>(n)));
  }
  return frames;
}

/// A fake publisher: accepts connections serially and hands each to the
/// scripted handler. The tests use it to misbehave in ways the real
/// SocketPublisher never would — drop mid-frame, go silent, babble.
class ScriptedServer {
 public:
  using Handler = std::function<void(ScriptedServer*, int fd, size_t index)>;

  ScriptedServer(std::string path, Handler handler)
      : path_(std::move(path)), handler_(std::move(handler)) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    FALCC_CHECK(listen_fd_ >= 0, "test: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path_.c_str());
    FALCC_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr)) == 0,
                "test: bind() failed");
    FALCC_CHECK(::listen(listen_fd_, 64) == 0, "test: listen() failed");
    thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~ScriptedServer() { Stop(); }

  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  size_t connections() const {
    return connections_.load(std::memory_order_acquire);
  }
  std::string endpoint() const { return "unix://" + path_; }

 private:
  void AcceptLoop() {
    size_t index = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      connections_.fetch_add(1, std::memory_order_release);
      handler_(this, fd, index++);
      ::close(fd);
    }
  }

  std::string path_;
  Handler handler_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connections_{0};
  bool stopped_ = false;
};

bool WaitConverged(ReplicaFleet* fleet, uint64_t hash,
                   double timeout_seconds = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    fleet->PollAll();
    if (fleet->ConvergedTo(hash)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(SocketEndpointTest, SchemesAreRecognizedAndDirectoriesAreNot) {
  EXPECT_TRUE(replicate::IsSocketEndpoint("tcp://127.0.0.1:9000"));
  EXPECT_TRUE(replicate::IsSocketEndpoint("unix:///tmp/feed.sock"));
  EXPECT_FALSE(replicate::IsSocketEndpoint("/var/lib/falcc/feed"));
  EXPECT_FALSE(replicate::IsSocketEndpoint("feed"));
}

TEST(SocketFleetTest, ReplicasConvergeOverAUnixSocketFeed) {
  const std::string dir = FreshDir("replicate_sock_fleet");
  DeltaPublisher writer = OpenPublisher(dir, /*checkpoint_every=*/0);
  SocketPublisherOptions po;
  po.listen = "unix://" + SocketPath("sock_fleet.sock");
  po.dir = dir;
  po.heartbeat_interval_seconds = 0.05;
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();
  FalccModel head = FreshModel();
  writer.PublishCheckpoint(head).value();
  publisher->ForwardNewArtifacts().value();
  const std::string model_path =
      (fs::path(::testing::TempDir()) / "sock_fleet_v0.falcc").string();
  ASSERT_TRUE(head.SaveToFile(model_path).ok());

  ReplicaFleetOptions options;
  options.num_replicas = 4;
  options.feed_endpoint = publisher->endpoint();
  options.puller = FastPuller();
  options.socket.reconnect_initial_seconds = 0.01;
  options.socket.reconnect_max_seconds = 0.05;
  ReplicaFleet fleet(options);
  ASSERT_TRUE(fleet.Bootstrap(model_path).ok());
  // The replicas subscribed after the checkpoint was published: it
  // reaches them via catch-up replay, not the filesystem. They already
  // hold its content from the bootstrap file, so convergence alone does
  // not mean the replay happened: wait for the publisher's thread to
  // send it.
  ASSERT_TRUE(WaitConverged(&fleet, HashOf(head)));
  const auto catchup_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (publisher->Stats().catchup_artifacts == 0 &&
         std::chrono::steady_clock::now() < catchup_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(publisher->Stats().catchup_artifacts, 1u);

  for (size_t event = 0; event < 3; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    writer.PublishDelta(next, clusters, HashOf(head)).value();
    publisher->ForwardNewArtifacts().value();
    head = std::move(next);
    ASSERT_TRUE(WaitConverged(&fleet, HashOf(head))) << "event " << event;
  }

  // Bit-identical decisions across the socket-fed fleet.
  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const ClassifyRequest request{flat, s.test.num_features()};
  const ClassifyResponse primary = head.ClassifyBatch(request).value();
  for (size_t r = 0; r < fleet.size(); ++r) {
    const ClassifyResponse replica =
        fleet.engine(r)->ClassifyBatch(request).value();
    ASSERT_EQ(replica.decisions.size(), primary.decisions.size());
    for (size_t i = 0; i < primary.decisions.size(); ++i) {
      const SampleDecision& p = primary.decisions[i];
      const SampleDecision& d = replica.decisions[i];
      ASSERT_TRUE(p.label == d.label && p.probability == d.probability &&
                  p.cluster == d.cluster && p.group == d.group &&
                  p.model == d.model)
          << "replica " << r << " sample " << i;
    }
  }
  publisher->Close();
}

TEST(SocketPartitionTest, MidFrameDropAtEveryByteOffsetStillDelivers) {
  const std::string checkpoint_payload = "full-snapshot-payload";
  const std::string delta_payload = "delta-payload";
  std::string stream;
  stream += EncodeFrame(HelloFrame(3));
  stream += EncodeFrame(ArtifactFrame(1, ArtifactKind::kFull,
                                      checkpoint_payload));
  stream += EncodeFrame(ArtifactFrame(2, ArtifactKind::kDelta, delta_payload,
                                      0xfeedull));
  // Connection i dies after byte i: every possible mid-frame cut, from
  // an empty HELLO through one byte short of the full stream. Once the
  // offsets are exhausted the server finally sends everything.
  ScriptedServer server(
      SocketPath("sock_drop.sock"),
      [&stream](ScriptedServer*, int fd, size_t index) {
        SendRaw(fd, std::string_view(stream).substr(
                        0, std::min(index, stream.size())));
      });

  SocketFeedOptions options;
  options.reconnect_initial_seconds = 1e-4;
  options.reconnect_max_seconds = 1e-3;
  options.reconnect_jitter = 0.0;
  options.liveness_timeout_seconds = 0.25;
  std::unique_ptr<SocketFeed> feed =
      SocketFeed::Connect(server.endpoint(), options).value();

  std::vector<FeedEntry> entries;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    entries = feed->Poll(0).value();
    if (entries.size() == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(entries.size(), 2u) << "after " << server.connections()
                                << " connections";
  EXPECT_GT(server.connections(), stream.size());
  // Both artifacts arrived exactly once, byte-identical, despite every
  // earlier connection dying mid-frame.
  EXPECT_EQ(entries[0].sequence, 1u);
  EXPECT_EQ(entries[0].kind, ArtifactKind::kFull);
  EXPECT_EQ(ReadAllBytes(entries[0].path), checkpoint_payload);
  EXPECT_EQ(entries[1].sequence, 2u);
  EXPECT_EQ(entries[1].kind, ArtifactKind::kDelta);
  EXPECT_EQ(entries[1].base_hash, 0xfeedull);
  EXPECT_EQ(ReadAllBytes(entries[1].path), delta_payload);
  const SocketFeedStats stats = feed->Stats();
  EXPECT_EQ(stats.artifacts_spooled, 2u);
  EXPECT_GE(stats.connects, 1u);
  server.Stop();
}

TEST(SocketPartitionTest, HeartbeatTimeoutTearsDownAndReconnects) {
  const std::string hello = EncodeFrame(HelloFrame(1));
  // A publisher that hangs without closing: handshake completes, then
  // silence. Only the liveness timeout can detect this.
  ScriptedServer server(
      SocketPath("sock_silent.sock"),
      [&hello](ScriptedServer* server, int fd, size_t) {
        SendRaw(fd, hello);
        while (!server->stopping()) {
          pollfd p{fd, POLLIN, 0};
          if (::poll(&p, 1, 20) <= 0) continue;
          char buf[256];
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n == 0) return;  // the subscriber gave up on us
          if (n < 0 && errno != EAGAIN && errno != EINTR) return;
        }
      });

  SocketFeedOptions options;
  options.reconnect_initial_seconds = 1e-3;
  options.reconnect_max_seconds = 5e-3;
  options.liveness_timeout_seconds = 0.1;
  std::unique_ptr<SocketFeed> feed =
      SocketFeed::Connect(server.endpoint(), options).value();

  // Meanwhile the replica keeps serving its installed snapshot.
  serve::FalccEngine engine;
  engine.Install(FreshModel());
  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  const auto row = s.test.Row(0);
  flat.insert(flat.end(), row.begin(), row.end());
  const ClassifyRequest request{flat, s.test.num_features()};

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    EXPECT_TRUE(engine.ClassifyBatch(request).ok());
    const SocketFeedStats stats = feed->Stats();
    if (stats.liveness_timeouts >= 2 && stats.connects >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const SocketFeedStats stats = feed->Stats();
  EXPECT_GE(stats.liveness_timeouts, 2u);
  EXPECT_GE(stats.connects, 2u);
  EXPECT_EQ(stats.artifacts_spooled, 0u);
  server.Stop();
}

TEST(SocketPartitionTest, SlowSubscriberIsDroppedToTheNewestCheckpoint) {
  const std::string dir = FreshDir("replicate_sock_slow");
  const std::string path = SocketPath("sock_slow.sock");
  // Every delta is chased by a full checkpoint, whose GC removes the
  // delta at once.
  DeltaPublisher writer = OpenPublisher(dir, /*checkpoint_every=*/1);
  SocketPublisherOptions po;
  po.listen = "unix://" + path;
  po.dir = dir;
  po.send_buffer_bytes = 4096;  // tiny SO_SNDBUF: sends stall fast
  po.send_timeout_seconds = 60.0;  // the stall must outlive the test, not the socket
  po.heartbeat_interval_seconds = 0.05;
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();

  // A raw subscriber that handshakes and then stops reading.
  const int fd = ConnectUnixSocket(path);
  SendRaw(fd, EncodeFrame(SubscribeFrame(0)));
  FrameDecoder decoder;
  const std::vector<WireFrame> hello = RecvFrames(fd, &decoder, 1, 10.0);
  ASSERT_EQ(hello.size(), 1u);
  ASSERT_EQ(hello[0].type, FrameType::kHello);

  // Publish while the subscriber stalls. Enough bytes must go out to
  // overflow the kernel socket buffer and stall the sender mid-entry,
  // so GC removes artifacts it has not sent yet.
  FalccModel head = FreshModel();
  writer.PublishCheckpoint(head).value();
  publisher->ForwardNewArtifacts().value();
  // Read that first checkpoint, so the sender is past its catch-up
  // replay and streams live before the burst below. A burst that
  // finished before the catch-up poll would reach the subscriber as
  // catch-up, where a jump is the late-joiner bootstrap, not a drop.
  bool streaming = false;
  while (!streaming) {
    const std::vector<WireFrame> frames = RecvFrames(fd, &decoder, 1, 10.0);
    ASSERT_FALSE(frames.empty());
    for (const WireFrame& frame : frames) {
      streaming = streaming || frame.type == FrameType::kArtifact;
    }
  }
  for (size_t event = 0; event < 16; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    writer.PublishDelta(next, clusters, HashOf(head)).value();
    publisher->ForwardNewArtifacts().value();
    head = std::move(next);
  }
  // GC ran while the sender was stalled mid-checkpoint; the jump (and
  // its drop-to-checkpoint accounting) happens when the sender next
  // replays — i.e. once the subscriber starts reading.
  // Somewhere in the drained stream is a full checkpoint carrying the
  // publisher's final state, byte-identical to a local save of the same
  // model.
  const std::string want = SaveBytes(head);
  bool recovered = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    const std::vector<WireFrame> frames = RecvFrames(fd, &decoder, 1, 5.0);
    if (frames.empty()) break;
    for (const WireFrame& frame : frames) {
      if (frame.type == FrameType::kArtifact &&
          frame.kind == ArtifactKind::kFull && frame.payload == want) {
        recovered = true;
      }
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(publisher->Stats().drops_to_checkpoint, 1u);
  ::close(fd);
  publisher->Close();
}

/// This process's virtual size in kB, from /proc/self/status (0 where
/// unavailable).
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

// A subscriber whose connection ended is joined by the accept loop, not
// kept until Close(): a replica that reconnects over and over must not
// pile up exited threads, each still holding its stack.
TEST(SocketPartitionTest, FinishedSubscribersAreJoinedBeforeClose) {
  const std::string dir = FreshDir("replicate_sock_reap");
  const std::string path = SocketPath("sock_reap.sock");
  SocketPublisherOptions po;
  po.listen = "unix://" + path;
  po.dir = dir;
  po.heartbeat_interval_seconds = 0.01;  // the next heartbeat finds the close
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();
  // One SUBSCRIBE/HELLO/close cycle, over once the publisher's sender
  // thread has seen the connection end.
  const auto cycle = [&] {
    const int fd = ConnectUnixSocket(path);
    SendRaw(fd, EncodeFrame(SubscribeFrame(0)));
    FrameDecoder decoder;
    const std::vector<WireFrame> hello = RecvFrames(fd, &decoder, 1, 10.0);
    ::close(fd);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (publisher->Stats().subscribers > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // A heartbeat sent 10 ms after the HELLO may arrive in the same read.
    return !hello.empty() && hello[0].type == FrameType::kHello &&
           publisher->Stats().subscribers == 0;
  };
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(cycle()) << "warm-up cycle " << i;
  const size_t warm_kb = VmSizeKb();
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(cycle()) << "cycle " << i;
  const size_t after_kb = VmSizeKb();
  ASSERT_GT(warm_kb, 0u);
  // Left unjoined, 64 exited threads keep 64 stacks mapped (8 MiB each
  // by default, 512 MB); joined, their stacks are reused.
  EXPECT_LT(after_kb, warm_kb + 64 * 1024)
      << "VmSize grew from " << warm_kb << " kB to " << after_kb << " kB";
  EXPECT_EQ(publisher->Stats().accepted, 128u);
  publisher->Close();
}

// A clean Close() tells each connected subscriber so with an EOF frame
// after everything it was sent, so a replica can tell a shutdown from a
// partition.
TEST(SocketPartitionTest, CloseSendsEofToConnectedSubscribers) {
  const std::string dir = FreshDir("replicate_sock_eof");
  const std::string path = SocketPath("sock_eof.sock");
  SocketPublisherOptions po;
  po.listen = "unix://" + path;
  po.dir = dir;
  po.heartbeat_interval_seconds = 60.0;  // no heartbeat before the EOF
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();
  const int fd = ConnectUnixSocket(path);
  SendRaw(fd, EncodeFrame(SubscribeFrame(0)));
  FrameDecoder decoder;
  const std::vector<WireFrame> hello = RecvFrames(fd, &decoder, 1, 10.0);
  ASSERT_EQ(hello.size(), 1u);
  EXPECT_EQ(hello[0].type, FrameType::kHello);
  // Close() joins the sender, so the EOF (if any) is already buffered.
  publisher->Close();
  const std::vector<WireFrame> rest = RecvFrames(fd, &decoder, 1, 10.0);
  ::close(fd);
  ASSERT_EQ(rest.size(), 1u) << "no frame after HELLO before the close";
  EXPECT_EQ(rest[0].type, FrameType::kEof);
}

TEST(SocketPartitionTest, PublisherRestartResubscribesAndReconverges) {
  const std::string dir = FreshDir("replicate_sock_restart");
  DeltaPublisher writer = OpenPublisher(dir, /*checkpoint_every=*/0);
  SocketPublisherOptions po;
  po.listen = "unix://" + SocketPath("sock_restart.sock");
  po.dir = dir;
  po.heartbeat_interval_seconds = 0.05;
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();
  FalccModel head = FreshModel();
  writer.PublishCheckpoint(head).value();
  publisher->ForwardNewArtifacts().value();
  const std::string model_path =
      (fs::path(::testing::TempDir()) / "sock_restart_v0.falcc").string();
  ASSERT_TRUE(head.SaveToFile(model_path).ok());

  ReplicaFleetOptions options;
  options.num_replicas = 2;
  options.feed_endpoint = publisher->endpoint();
  options.puller = FastPuller();
  options.socket.reconnect_initial_seconds = 0.01;
  options.socket.reconnect_max_seconds = 0.05;
  options.socket.liveness_timeout_seconds = 0.3;
  ReplicaFleet fleet(options);
  ASSERT_TRUE(fleet.Bootstrap(model_path).ok());
  ASSERT_TRUE(WaitConverged(&fleet, HashOf(head)));
  {
    FalccModel next = NextVersion(head, 0);
    const size_t clusters[] = {0};
    writer.PublishDelta(next, clusters, HashOf(head)).value();
    publisher->ForwardNewArtifacts().value();
    head = std::move(next);
  }
  ASSERT_TRUE(WaitConverged(&fleet, HashOf(head)));

  // The publisher dies. Replicas keep serving what they have.
  publisher->Close();
  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  const auto row = s.test.Row(0);
  flat.insert(flat.end(), row.begin(), row.end());
  const ClassifyRequest request{flat, s.test.num_features()};
  EXPECT_TRUE(fleet.engine(0)->ClassifyBatch(request).ok());
  EXPECT_TRUE(fleet.ConvergedTo(HashOf(head)));

  // A new publisher binds the same endpoint over the same durable feed
  // directory: sequences resume, replicas resubscribe from their last
  // applied position, and the next delta converges the fleet again.
  writer = OpenPublisher(dir, /*checkpoint_every=*/0);
  std::unique_ptr<SocketPublisher> revived = SocketPublisher::Open(po).value();
  {
    FalccModel next = NextVersion(head, 1 % head.num_clusters());
    const size_t clusters[] = {1 % head.num_clusters()};
    writer.PublishDelta(next, clusters, HashOf(head)).value();
    revived->ForwardNewArtifacts().value();
    head = std::move(next);
  }
  EXPECT_TRUE(WaitConverged(&fleet, HashOf(head)));
  revived->Close();
}

// The socket variant of the pull-while-classify race: the receiver
// thread spools frames and notifies, the puller thread applies, the
// classify thread reads — all concurrently (TSan coverage).
TEST(PullerConcurrencyTest, SocketPullWhileClassifyRace) {
  const std::string dir = FreshDir("replicate_sock_race");
  DeltaPublisher writer = OpenPublisher(dir, /*checkpoint_every=*/0);
  SocketPublisherOptions po;
  po.listen = "unix://" + SocketPath("sock_race.sock");
  po.dir = dir;
  po.heartbeat_interval_seconds = 0.05;
  std::unique_ptr<SocketPublisher> publisher =
      SocketPublisher::Open(po).value();
  FalccModel head = FreshModel();
  writer.PublishCheckpoint(head).value();
  publisher->ForwardNewArtifacts().value();

  serve::FalccEngine engine;
  engine.Install(FreshModel());

  SocketFeedOptions feed_options;
  feed_options.reconnect_initial_seconds = 0.01;
  feed_options.reconnect_max_seconds = 0.05;
  std::unique_ptr<SocketFeed> feed =
      SocketFeed::Connect(publisher->endpoint(), feed_options).value();
  DeltaPullerOptions options = FastPuller();
  options.poll_interval_seconds = 0.05;  // frames push their own wakes
  DeltaPuller puller(&engine, std::move(feed), options);
  puller.Start();

  const TrainValTest s = MakeSplits();
  std::vector<double> flat;
  const size_t rows = std::min<size_t>(s.test.num_rows(), 64);
  for (size_t i = 0; i < rows; ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const size_t width = s.test.num_features();

  std::atomic<bool> stop{false};
  std::thread classifier([&] {
    const ClassifyRequest request{flat, width};
    while (!stop.load(std::memory_order_acquire)) {
      const Result<ClassifyResponse> response = engine.ClassifyBatch(request);
      EXPECT_TRUE(response.ok());
    }
  });

  for (size_t event = 0; event < 5; ++event) {
    FalccModel next = NextVersion(head, event % head.num_clusters());
    const size_t clusters[] = {event % head.num_clusters()};
    ASSERT_TRUE(writer.PublishDelta(next, clusters, HashOf(head)).ok());
    ASSERT_TRUE(publisher->ForwardNewArtifacts().ok());
    head = std::move(next);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const uint64_t target = HashOf(head);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<uint64_t> serving = puller.ServingHash();
    if (serving.ok() && serving.value() == target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  classifier.join();
  puller.Stop();
  EXPECT_EQ(puller.ServingHash().value(), target);
  EXPECT_EQ(puller.Stats().deltas_applied, 5u);
  publisher->Close();
}

// The refresher's socket path: with delta_dir and feed_listen set, an
// installed refresh is written to the directory and pushed by the
// listener the refresher opens, a SocketFeed replica converges on the
// primary's content hash, and the spooled delta is the directory's
// artifact byte for byte.
TEST(RefresherSocketTest, InstalledRefreshReachesASocketReplica) {
  const std::string dir = FreshDir("replicate_refresher_feed");
  const std::string spool = FreshDir("replicate_refresher_spool");
  serve::FalccEngine primary;
  primary.Install(FreshModel());
  monitor::RefresherOptions options;
  options.delta_dir = dir;
  options.feed_listen = "unix://" + SocketPath("refresher_feed.sock");
  monitor::Refresher refresher(&primary, options);

  // The replica subscribes before the listener exists (it opens on the
  // first install) and reconnects until it does.
  serve::FalccEngine replica;
  replica.Install(FreshModel());
  SocketFeedOptions feed_options;
  feed_options.spool_dir = spool;
  feed_options.reconnect_initial_seconds = 0.01;
  feed_options.reconnect_max_seconds = 0.05;
  std::unique_ptr<SocketFeed> feed =
      SocketFeed::Connect(options.feed_listen, feed_options).value();
  DeltaPuller puller(&replica, std::move(feed), FastPuller());
  puller.Start();

  // A window whose labels contradict every serving decision in the most
  // populated cluster: the serving combination scores worst on it, so a
  // better one exists and the refresh installs.
  const TrainValTest s = MakeSplits();
  const size_t width = s.test.num_features();
  std::vector<double> flat;
  for (size_t i = 0; i < s.test.num_rows(); ++i) {
    const auto row = s.test.Row(i);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const ClassifyResponse served =
      primary.ClassifyBatch(ClassifyRequest{flat, width}).value();
  std::vector<size_t> per_cluster(primary.snapshot()->num_clusters(), 0);
  for (const SampleDecision& d : served.decisions) ++per_cluster[d.cluster];
  const size_t cluster = static_cast<size_t>(
      std::max_element(per_cluster.begin(), per_cluster.end()) -
      per_cluster.begin());
  monitor::ClusterWindow window;
  for (size_t i = 0; i < served.decisions.size(); ++i) {
    const SampleDecision& d = served.decisions[i];
    if (d.cluster != cluster) continue;
    window.features.insert(window.features.end(), flat.begin() + i * width,
                           flat.begin() + (i + 1) * width);
    window.labels.push_back(1 - d.label);
    window.predictions.push_back(d.label);
    window.groups.push_back(d.group);
  }
  const monitor::RefreshOutcome outcome =
      refresher.RefreshCluster(window, cluster).value();
  ASSERT_TRUE(outcome.installed);
  EXPECT_EQ(refresher.Stats().delta_published, 1u);
  EXPECT_EQ(refresher.Stats().delta_failures, 0u);
  ASSERT_FALSE(outcome.delta_path.empty());

  const uint64_t target = HashOf(*primary.snapshot());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const Result<uint64_t> serving = puller.ServingHash();
    if (serving.ok() && serving.value() == target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  puller.Stop();
  EXPECT_EQ(puller.ServingHash().value(), target);
  EXPECT_EQ(puller.Stats().deltas_applied, 1u);

  const std::vector<FeedEntry> spooled = DirectoryFeed(spool).Poll(0).value();
  ASSERT_EQ(spooled.size(), 1u);
  EXPECT_EQ(spooled[0].kind, ArtifactKind::kDelta);
  EXPECT_EQ(ReadAllBytes(spooled[0].path), ReadAllBytes(outcome.delta_path));
}

}  // namespace
}  // namespace falcc
