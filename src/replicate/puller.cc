#include "replicate/puller.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace falcc::replicate {

namespace {

serve::SnapshotSourceOptions SourceOptions(const DeltaPullerOptions& options) {
  serve::SnapshotSourceOptions source;
  source.prefer_mmap = options.prefer_mmap;
  return source;
}

/// SplitMix64 step → uniform double in [0, 1). Deterministic per-puller
/// jitter without dragging in the full Rng (one stream, one use).
double NextUniform(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ull;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

DeltaPuller::DeltaPuller(serve::FalccEngine* engine,
                         std::unique_ptr<DeltaFeed> feed,
                         DeltaPullerOptions options)
    : source_(engine, SourceOptions(options)),
      engine_(engine),
      feed_(std::move(feed)),
      options_(options),
      jitter_state_(options.jitter_seed) {
  FALCC_CHECK(feed_ != nullptr, "DeltaPuller: null feed");
}

DeltaPuller::~DeltaPuller() { Stop(); }

bool DeltaPuller::HasSnapshot() const {
  return engine_->snapshot() != nullptr;
}

Status DeltaPuller::LoadFull(const std::string& path) {
  return source_.LoadFull(path);
}

Status DeltaPuller::ApplyDelta(const std::string& path) {
  return source_.ApplyDelta(path);
}

Result<uint64_t> DeltaPuller::ServingHash() const {
  const std::shared_ptr<const FalccModel> snapshot = engine_->snapshot();
  if (snapshot == nullptr) {
    return Status::Unavailable("DeltaPuller: no snapshot installed");
  }
  return snapshot->ContentHash();
}

PullReport DeltaPuller::PollOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  PullReport report;
  ++stats_.polls;

  // Fetch + apply, then recover-and-reapply while recovery makes
  // progress: a successful checkpoint reload moves the cursor backward,
  // so the deltas between the checkpoint and the break must be
  // re-fetched and re-applied within the same poll to converge.
  auto fetch_and_advance = [&] {
    Result<std::vector<FeedEntry>> polled = feed_->Poll(last_sequence_);
    if (!polled.ok()) {
      ++stats_.feed_errors;
      stats_.last_error = report.last_error = polled.status().ToString();
    } else {
      for (FeedEntry& entry : polled.value()) {
        if (entry.sequence <= last_sequence_) continue;
        if (quarantined_.count(entry.path) > 0) continue;
        if (buffer_.count(entry.sequence) > 0) continue;
        if (buffer_.size() >= options_.max_buffered) {
          // The gap in front of the buffer is wider than we will ever
          // hold: treat it as lost and recover via checkpoint.
          need_recovery_ = true;
          break;
        }
        ++report.entries_seen;
        ++stats_.entries_seen;
        buffer_.emplace(entry.sequence, std::move(entry));
      }
    }
    Advance(&report);
  };

  fetch_and_advance();

  // Gap patience: blocked on a missing sequence (or an empty replica
  // with no checkpoint in sight) for too many polls → same fallback as
  // a broken chain. Counted once per poll.
  if (!need_recovery_ && !buffer_.empty()) {
    const bool blocked = !HasSnapshot() ||
                         buffer_.begin()->first > last_sequence_ + 1;
    if (blocked) {
      if (++gap_polls_ > options_.gap_patience_polls) {
        need_recovery_ = true;
        ++stats_.gap_fallbacks;
        gap_polls_ = 0;
      }
    } else {
      gap_polls_ = 0;
    }
  }

  for (int round = 0; need_recovery_ && round < 3; ++round) {
    const uint64_t before = stats_.recoveries;
    TryRecover(&report, Clock::now());
    if (stats_.recoveries == before) break;  // backoff holds or nothing loadable
    fetch_and_advance();
  }

  report.recovery_pending = need_recovery_;
  stats_.recovery_pending = need_recovery_;
  stats_.buffered = buffer_.size();
  stats_.last_sequence = last_sequence_;
  return report;
}

void DeltaPuller::Advance(PullReport* report) {
  while (!buffer_.empty() && !need_recovery_) {
    auto it = buffer_.begin();
    if (it->first <= last_sequence_) {
      buffer_.erase(it);
      continue;
    }
    if (!HasSnapshot()) {
      BootstrapFromBuffer(report);
      if (!HasSnapshot()) return;  // nothing loadable yet: wait
      continue;
    }
    const FeedEntry entry = it->second;
    if (entry.sequence != last_sequence_ + 1) {
      // A sequence is missing. A buffered checkpoint subsumes every
      // delta before it, so the newest loadable one jumps the gap;
      // otherwise wait it out (gap patience) — the artifact may just be
      // syncing in late.
      std::vector<uint64_t> fulls;
      for (const auto& [seq, buffered] : buffer_) {
        if (buffered.kind == ArtifactKind::kFull) fulls.push_back(seq);
      }
      bool jumped = false;
      for (auto rit = fulls.rbegin(); rit != fulls.rend(); ++rit) {
        const FeedEntry full = buffer_.at(*rit);
        const Status loaded = LoadFull(full.path);
        if (loaded.ok()) {
          ++report->full_reloads;
          ++stats_.full_reloads;
          ConsumeThrough(full.sequence);
          jumped = true;
          break;
        }
        Quarantine(full, report, loaded.ToString());
        buffer_.erase(full.sequence);
      }
      if (jumped) continue;
      return;  // blocked on the gap
    }
    switch (entry.kind) {
      case ArtifactKind::kFull: {
        const Status loaded = LoadFull(entry.path);
        if (loaded.ok()) {
          ++report->full_reloads;
          ++stats_.full_reloads;
          ConsumeThrough(entry.sequence);
        } else {
          // Consume past the corrupt checkpoint — retrying it is
          // pointless — and recover from whatever else is loadable.
          Quarantine(entry, report, loaded.ToString());
          ConsumeThrough(entry.sequence);
          need_recovery_ = true;
        }
        break;
      }
      case ArtifactKind::kDelta: {
        const Status applied = ApplyDelta(entry.path);
        if (applied.ok()) {
          ++report->deltas_applied;
          ++stats_.deltas_applied;
          ConsumeThrough(entry.sequence);
        } else if (applied.code() == StatusCode::kFailedPrecondition) {
          // Chain break: the delta is intact but applies to a snapshot
          // we are not serving. Only a checkpoint can resynchronize.
          ++report->chain_breaks;
          ++stats_.chain_breaks;
          stats_.last_error = report->last_error = applied.ToString();
          ConsumeThrough(entry.sequence);
          need_recovery_ = true;
        } else {
          Quarantine(entry, report, applied.ToString());
          ConsumeThrough(entry.sequence);
          need_recovery_ = true;
        }
        break;
      }
      case ArtifactKind::kUnreadable: {
        // Publishers rename complete artifacts into place, so an
        // unsniffable file is corrupt, not in-progress.
        Quarantine(entry, report, "unreadable artifact '" + entry.path + "'");
        ConsumeThrough(entry.sequence);
        need_recovery_ = true;
        break;
      }
    }
  }
}

void DeltaPuller::BootstrapFromBuffer(PullReport* report) {
  // An empty replica can only start from a full snapshot: walk buffered
  // checkpoints newest-first (retention keeps this short — that is the
  // late-joiner contract).
  std::vector<uint64_t> fulls;
  for (const auto& [seq, entry] : buffer_) {
    if (entry.kind == ArtifactKind::kFull) fulls.push_back(seq);
  }
  for (auto rit = fulls.rbegin(); rit != fulls.rend(); ++rit) {
    const FeedEntry entry = buffer_.at(*rit);
    const Status loaded = LoadFull(entry.path);
    if (loaded.ok()) {
      ++report->full_reloads;
      ++stats_.full_reloads;
      ConsumeThrough(entry.sequence);
      return;
    }
    Quarantine(entry, report, loaded.ToString());
    buffer_.erase(entry.sequence);
  }
}

void DeltaPuller::ConsumeThrough(uint64_t sequence) {
  last_sequence_ = sequence;
  buffer_.erase(buffer_.begin(), buffer_.upper_bound(sequence));
}

void DeltaPuller::TryRecover(PullReport* report, Clock::time_point now) {
  if (now < next_retry_) return;  // backoff holds; keep serving last-good
  Result<std::vector<FeedEntry>> all = feed_->Poll(0);
  if (!all.ok()) {
    ++stats_.feed_errors;
    stats_.last_error = report->last_error = all.status().ToString();
    ++stats_.retries;
    ScheduleRetry(now);
    return;
  }
  std::vector<const FeedEntry*> fulls;
  for (const FeedEntry& entry : all.value()) {
    if (entry.kind == ArtifactKind::kFull && quarantined_.count(entry.path) == 0) {
      fulls.push_back(&entry);
    }
  }
  std::sort(fulls.begin(), fulls.end(),
            [](const FeedEntry* a, const FeedEntry* b) {
              return a->sequence > b->sequence;
            });
  for (const FeedEntry* entry : fulls) {
    const Status loaded = LoadFull(entry->path);
    if (loaded.ok()) {
      ++report->recoveries;
      ++stats_.recoveries;
      need_recovery_ = false;
      gap_polls_ = 0;
      backoff_seconds_ = 0.0;
      next_retry_ = Clock::time_point{};
      // Reset the cursor to the checkpoint; deltas behind it (if any
      // survive in the feed) re-apply in order on the next advance.
      ConsumeThrough(entry->sequence);
      // Entries below the checkpoint are subsumed; ones we already held
      // above it stay buffered.
      return;
    }
    Quarantine(*entry, report, loaded.ToString());
  }
  // Nothing loadable: the last-good snapshot keeps serving; retry with
  // exponential backoff + jitter so a replica fleet does not hammer a
  // degraded feed in lockstep.
  ++stats_.retries;
  ScheduleRetry(now);
}

void DeltaPuller::ScheduleRetry(Clock::time_point now) {
  backoff_seconds_ = backoff_seconds_ <= 0.0
                         ? options_.backoff_initial_seconds
                         : std::min(backoff_seconds_ * 2.0,
                                    options_.backoff_max_seconds);
  const double jitter =
      1.0 + options_.backoff_jitter * (2.0 * NextUniform(&jitter_state_) - 1.0);
  next_retry_ = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              std::max(backoff_seconds_ * jitter, 0.0)));
}

void DeltaPuller::Quarantine(const FeedEntry& entry, PullReport* report,
                             const std::string& why) {
  quarantined_.insert(entry.path);
  // Bound the set: quarantined artifacts are eventually GC'd by the
  // publisher, so dropping the oldest name only risks one retry.
  if (quarantined_.size() > 1024) quarantined_.erase(quarantined_.begin());
  ++stats_.quarantined;
  ++report->quarantined;
  stats_.last_error = report->last_error = why;
}

DeltaPullerStats DeltaPuller::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void DeltaPuller::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { PollLoop(); });
}

void DeltaPuller::Stop() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    worker = std::move(thread_);
  }
  thread_cv_.notify_all();
  // The loop may be parked in the feed's wait (inotify poll, socket
  // backoff sleep); the cancel is consumed by exactly one wait, so a
  // later Start() is unaffected.
  feed_->CancelWait();
  worker.join();
}

void DeltaPuller::PollLoop() {
  const double interval = std::max(options_.poll_interval_seconds, 1e-4);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(thread_mu_);
      if (stop_) return;
    }
    PollOnce();
    {
      std::lock_guard<std::mutex> lock(thread_mu_);
      if (stop_) return;
    }
    // Push-capable feeds wake this early (inotify rename, socket frame
    // arrival); the interval is only the re-poll ceiling. A cancel
    // issued between the check above and this wait is consumed here, so
    // Stop never blocks for a full interval.
    feed_->WaitForChange(interval);
  }
}

}  // namespace falcc::replicate
