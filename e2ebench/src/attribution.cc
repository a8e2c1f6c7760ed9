#include "attribution.h"

#include <algorithm>

namespace e2e {

namespace {

/// Periods beyond this many merge states (a long stall) are withheld
/// whole rather than resolved.
constexpr size_t kMaxStates = size_t{1} << 22;

}  // namespace

std::vector<int> ResolvePeriod(const std::vector<Decided>& period) {
  std::vector<const Decided*> seq[2];
  for (const Decided& d : period) seq[d.shard == 0 ? 0 : 1].push_back(&d);
  const std::vector<const Decided*>& a = seq[0];
  const std::vector<const Decided*>& b = seq[1];
  const size_t na = a.size(), nb = b.size();
  std::vector<int> truth(na + nb, -1);
  if (na == 0 || nb == 0) {
    const auto& only = na == 0 ? b : a;
    for (size_t i = 0; i < only.size(); ++i) truth[i] = only[i]->truth;
    return truth;
  }
  if ((na + 1) * (nb + 1) > kMaxStates) return truth;

  // Placing x next is allowed unless the other sequence's next request y
  // returned before x was sent (then y's id is smaller). Later requests
  // of a shard are sent and return later, so checking the heads covers
  // every pair.
  auto a_next = [&](size_t i, size_t j) {
    return i < na && (j == nb || b[j]->done_ns >= a[i]->send_ns);
  };
  auto b_next = [&](size_t i, size_t j) {
    return j < nb && (i == na || a[i]->done_ns >= b[j]->send_ns);
  };
  const size_t w = nb + 1;
  std::vector<uint8_t> from_start((na + 1) * w, 0), to_end((na + 1) * w, 0);
  from_start[0] = 1;
  for (size_t i = 0; i <= na; ++i) {
    for (size_t j = 0; j <= nb; ++j) {
      if (!from_start[i * w + j]) continue;
      if (a_next(i, j)) from_start[(i + 1) * w + j] = 1;
      if (b_next(i, j)) from_start[i * w + j + 1] = 1;
    }
  }
  to_end[na * w + nb] = 1;
  for (size_t i = na + 1; i-- > 0;) {
    for (size_t j = nb + 1; j-- > 0;) {
      if (a_next(i, j) && to_end[(i + 1) * w + j]) to_end[i * w + j] = 1;
      if (b_next(i, j) && to_end[i * w + j + 1]) to_end[i * w + j] = 1;
    }
  }
  // Which request each position can hold over every complete
  // interleaving: kNone, one request, or kMany.
  constexpr int64_t kNone = -1, kMany = -2;
  std::vector<int64_t> holder(na + nb, kNone);
  auto note = [&](size_t position, int64_t request) {
    int64_t& h = holder[position];
    if (h == kNone) {
      h = request;
    } else if (h != request) {
      h = kMany;
    }
  };
  for (size_t i = 0; i <= na; ++i) {
    for (size_t j = 0; j <= nb; ++j) {
      if (!from_start[i * w + j]) continue;
      if (a_next(i, j) && to_end[(i + 1) * w + j]) note(i + j, 2 * i);
      if (b_next(i, j) && to_end[i * w + j + 1]) note(i + j, 2 * j + 1);
    }
  }
  for (size_t k = 0; k < holder.size(); ++k) {
    if (holder[k] < 0) continue;
    const size_t index = static_cast<size_t>(holder[k] / 2);
    truth[k] = holder[k] % 2 == 0 ? a[index]->truth : b[index]->truth;
  }
  return truth;
}

void FeedbackAttributor::Add(const Decided& decided, Labels* out) {
  NextSentAt(decided.send_ns, out);
  period_.push_back(decided);
  max_done_ns_ = std::max(max_done_ns_, decided.done_ns);
}

void FeedbackAttributor::NextSentAt(int64_t send_ns, Labels* out) {
  if (!period_.empty() && send_ns > max_done_ns_) Close(out);
}

void FeedbackAttributor::Close(Labels* out) {
  const std::vector<int> truth = ResolvePeriod(period_);
  for (size_t k = 0; k < truth.size(); ++k) {
    if (truth[k] < 0) {
      ++withheld_;
    } else {
      out->emplace_back(next_position_ + k, truth[k]);
    }
  }
  next_position_ += truth.size();
  period_.clear();
  max_done_ns_ = 0;
}

}  // namespace e2e
