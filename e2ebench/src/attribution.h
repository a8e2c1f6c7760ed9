// Feedback attribution: which DecisionLog id belongs to which request.
//
// The monitor's DecisionLog numbers decisions in the order the shard
// workers append them, and two workers append concurrently; no public
// call tells a client the id of its decision. It can be bounded from
// outside, though: a request is appended after its Submit starts and
// before its Wait returns, and each shard appends its own requests in
// submission order. So if request x's Wait returned before request y's
// Submit started, x's id is smaller.
//
// Requests split into busy periods: a period closes when the next
// request is sent after every request so far has returned. A period's
// ids are exactly the next |period| ids. Inside it, every interleaving
// of the two shards' sequences that respects the ordering above is
// possible; a position that holds the same request in all of them gets
// that request's truth label, exactly. Other positions are withheld
// rather than guessed, so the monitor never sees a wrong label. Which
// positions are withheld depends only on timing, never on labels, so
// the labeled decisions are an unbiased sample: withholding by label
// (say, wherever the candidates' truths differ) would drop minority
// labels more often and inflate the windowed bias the detector watches.

#ifndef E2EBENCH_ATTRIBUTION_H_
#define E2EBENCH_ATTRIBUTION_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace e2e {

/// One decided request, as seen from outside the engine.
struct Decided {
  size_t shard = 0;     ///< 0 or 1
  int64_t send_ns = 0;  ///< Submit started
  int64_t done_ns = 0;  ///< Wait returned
  int truth = 0;        ///< feedback label for its decision
};

/// Truth label at each position of one busy period (requests in
/// submission order, at most two shards), or −1 where the possible
/// interleavings put different requests there.
std::vector<int> ResolvePeriod(const std::vector<Decided>& period);

/// Streams requests in submission order into busy periods and resolves
/// each as it closes. Positions count appended decisions from 0.
class FeedbackAttributor {
 public:
  /// (position, truth) pairs ready for AddFeedback.
  using Labels = std::vector<std::pair<uint64_t, int>>;

  /// Adds the next decided request (skip refused or failed ones: they
  /// append nothing).
  void Add(const Decided& decided, Labels* out);
  /// The next request in submission order was sent at `send_ns`: closes
  /// the period if everything in it had returned by then.
  void NextSentAt(int64_t send_ns, Labels* out);
  /// No more requests: closes the open period.
  void Close(Labels* out);

  uint64_t withheld() const { return withheld_; }

 private:
  std::vector<Decided> period_;
  int64_t max_done_ns_ = 0;
  uint64_t next_position_ = 0;
  uint64_t withheld_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_ATTRIBUTION_H_
