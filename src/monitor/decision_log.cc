#include "monitor/decision_log.h"

#include <algorithm>

#include "util/math.h"

namespace falcc::monitor {

DecisionLog::DecisionLog(size_t capacity, size_t num_features)
    : capacity_(RoundUpPow2(std::max<size_t>(capacity, 2))),
      num_features_(num_features),
      slots_(capacity_),
      features_(capacity_ * num_features_) {
  FALCC_CHECK(num_features > 0, "DecisionLog: num_features must be positive");
}

void DecisionLog::OnDecision(const SampleDecision& decision,
                             std::span<const double> features,
                             uint64_t snapshot_version) {
  Append(decision, features, snapshot_version);
}

uint64_t DecisionLog::Append(const SampleDecision& decision,
                             std::span<const double> features,
                             uint64_t snapshot_version) {
  FALCC_CHECK(features.size() == num_features_,
              "DecisionLog::Append: feature width mismatch");
  const uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[SlotOf(id)];

  // Claim the slot: publish "id, write in progress". The exchange tells
  // us what we displaced — an unconsumed previous entry is data loss.
  const uint64_t claimed = ((id + 1) << 4) | kWriting;
  const uint64_t old = slot.meta.exchange(claimed, std::memory_order_acq_rel);
  if (old != 0 && (old & kConsumed) == 0) {
    overwritten_.fetch_add(1, std::memory_order_relaxed);
    // A labeled entry the consumer never drained: it no longer counts
    // toward the drain's pending total.
    if ((old & kLabeled) != 0) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  slot.version.store(snapshot_version, std::memory_order_relaxed);
  slot.cluster.store(static_cast<uint32_t>(decision.cluster),
                     std::memory_order_relaxed);
  slot.group.store(static_cast<uint32_t>(decision.group),
                   std::memory_order_relaxed);
  slot.model.store(static_cast<uint32_t>(decision.model),
                   std::memory_order_relaxed);
  slot.predicted.store(decision.label, std::memory_order_relaxed);
  std::atomic<double>* dst = features_.data() + SlotOf(id) * num_features_;
  for (size_t j = 0; j < num_features_; ++j) {
    dst[j].store(features[j], std::memory_order_relaxed);
  }

  // Write complete: clear kWriting. Release orders the payload stores
  // before the flag for feedback/drain threads that acquire-load meta.
  slot.meta.store((id + 1) << 4, std::memory_order_release);
  appended_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool DecisionLog::AddFeedback(uint64_t id, int truth_label) {
  FALCC_CHECK(truth_label == 0 || truth_label == 1,
              "DecisionLog::AddFeedback: labels are binary");
  Slot& slot = slots_[SlotOf(id)];
  // Only a write-complete, unlabeled, unconsumed entry of exactly this
  // id accepts feedback; anything else (overwritten, consumed, double
  // feedback, still being written) fails the CAS.
  uint64_t expected = (id + 1) << 4;
  const uint64_t desired =
      expected | kLabeled | (truth_label == 1 ? kLabelOne : 0);
  if (slot.meta.compare_exchange_strong(expected, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    labeled_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  feedback_missed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

size_t DecisionLog::DrainLabeled(
    const std::function<void(const LoggedDecision&)>& visit) {
  // Pass 1: find labeled, unconsumed entries. The scan starts where the
  // previous drain stopped and ends as soon as it has seen every entry
  // that was pending when it began (labels arriving mid-scan are picked
  // up next drain; a full lap is the worst case, e.g. after a racing
  // overwrite shrank the pending count). Sorting by id gives the
  // visitor append order regardless of slot layout.
  // Clamped: a racing overwrite can transiently underflow the counter
  // (AddFeedback's CAS and its increment are two operations), which
  // must at worst cost a full lap, never a giant reserve.
  const uint64_t want =
      std::min<uint64_t>(pending_.load(std::memory_order_acquire), capacity_);
  if (want == 0) return 0;
  struct Candidate {
    uint64_t id;
    uint64_t meta;
    size_t slot;
  };
  std::vector<Candidate> pending;
  pending.reserve(want);
  for (size_t i = 0; i < capacity_ && pending.size() < want; ++i) {
    const size_t s = (drain_cursor_ + i) & (capacity_ - 1);
    const uint64_t m = slots_[s].meta.load(std::memory_order_acquire);
    if (m == 0 || (m & kWriting) != 0 || (m & kConsumed) != 0 ||
        (m & kLabeled) == 0) {
      continue;
    }
    pending.push_back({(m >> 4) - 1, m, s});
  }
  if (!pending.empty()) {
    // Resume just past the last candidate in scan order (pre-sort).
    drain_cursor_ = (pending.back().slot + 1) & (capacity_ - 1);
  }
  std::sort(pending.begin(), pending.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });

  std::vector<double> scratch(num_features_);
  size_t drained = 0;
  for (const Candidate& c : pending) {
    Slot& slot = slots_[c.slot];
    // Copy first, then validate: if a producer overwrote the slot since
    // our scan, the CAS below fails and the (possibly torn) copy is
    // discarded.
    LoggedDecision d;
    d.id = c.id;
    d.snapshot_version = slot.version.load(std::memory_order_relaxed);
    d.cluster = slot.cluster.load(std::memory_order_relaxed);
    d.group = slot.group.load(std::memory_order_relaxed);
    d.model = slot.model.load(std::memory_order_relaxed);
    d.predicted = slot.predicted.load(std::memory_order_relaxed);
    d.truth = (c.meta & kLabelOne) != 0 ? 1 : 0;
    const std::atomic<double>* src = features_.data() + c.slot * num_features_;
    for (size_t j = 0; j < num_features_; ++j) {
      scratch[j] = src[j].load(std::memory_order_relaxed);
    }
    uint64_t expected = c.meta;
    if (!slot.meta.compare_exchange_strong(expected, c.meta | kConsumed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      continue;  // overwritten mid-copy; entry already counted as lost
    }
    d.features = scratch;
    visit(d);
    ++drained;
  }
  consumed_.fetch_add(drained, std::memory_order_relaxed);
  pending_.fetch_sub(drained, std::memory_order_relaxed);
  return drained;
}

DecisionLogStats DecisionLog::Stats() const {
  DecisionLogStats stats;
  stats.appended = appended_.load(std::memory_order_relaxed);
  stats.labeled = labeled_.load(std::memory_order_relaxed);
  stats.consumed = consumed_.load(std::memory_order_relaxed);
  stats.feedback_missed = feedback_missed_.load(std::memory_order_relaxed);
  stats.overwritten = overwritten_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace falcc::monitor
