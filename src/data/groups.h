// Sensitive-group enumeration.
//
// Given sensitive attributes Sens = {A_1, ..., A_s}, the sensitive groups
// are G = dom(A_1) × ... × dom(A_s) (paper §3.1). GroupIndex discovers the
// observed domains from a dataset, assigns each value combination a dense
// group id, and maps arbitrary samples (including unseen test samples) to
// their group.
//
// The keys live in one flat array sorted lexicographically (the order
// std::vector<double>::operator< defines, so -0.0 and 0.0 are one key),
// with each key's group id alongside. A lookup binary-searches that
// array, reading the sample's sensitive values in place: no pointer
// chase and no key vector per query.

#ifndef FALCC_DATA_GROUPS_H_
#define FALCC_DATA_GROUPS_H_

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace falcc {

/// Dense indexing of sensitive groups (value combinations of the
/// sensitive attributes).
class GroupIndex {
 public:
  GroupIndex() = default;

  /// Discovers groups from the dataset's sensitive columns. Fails if the
  /// dataset declares no sensitive features.
  static Result<GroupIndex> Build(const Dataset& data);

  /// Number of groups |G|.
  size_t num_groups() const { return group_keys_.size(); }

  /// Sensitive columns this index was built over.
  const std::vector<size_t>& sensitive_features() const {
    return sensitive_features_;
  }

  /// Group id of a full feature vector (uses the sensitive columns).
  /// Returns NotFound for combinations never seen at build time.
  Result<size_t> GroupOf(std::span<const double> features) const;

  /// Like GroupOf, but maps unseen combinations to the group with the
  /// nearest sensitive-attribute key (Euclidean). Never fails on a built
  /// index; used by online classification of arbitrary test samples.
  /// `features` must cover every sensitive column of the index.
  /// Allocation-free: the key is compared in place.
  size_t GroupOfOrNearest(std::span<const double> features) const;

  /// Group id per row of `data` (must have the same sensitive columns).
  /// Rows with unseen combinations fail.
  Result<std::vector<size_t>> GroupsOf(const Dataset& data) const;

  /// Human-readable name of a group, e.g. "(sex=1, race=0)".
  std::string GroupName(size_t group, const Dataset& data) const;

  /// The sensitive attribute values identifying group `g`.
  const std::vector<double>& GroupKey(size_t g) const { return group_keys_[g]; }

  /// Text serialization (whitespace tokens, lossless doubles).
  Status Serialize(std::ostream* out) const;
  static Result<GroupIndex> Deserialize(std::istream* in);

 private:
  /// A sample's sensitive values, read in place from its feature vector
  /// — the lookup key, so a query builds no key vector.
  struct SampleKey {
    std::span<const double> features;
    std::span<const size_t> columns;
    double operator[](size_t i) const { return features[columns[i]]; }
  };

  /// Position of the first sorted key not lexicographically less than
  /// `key` (std::lower_bound over sorted_keys_).
  size_t LowerBound(SampleKey key) const;
  /// Whether sorted key `pos` exists and equals `key` (neither is less).
  bool KeyEquals(size_t pos, SampleKey key) const;
  /// Fills sorted_keys_ and sorted_groups_ from group_keys_ with one
  /// sort; false if two keys are equal (neither is less).
  bool IndexKeys();

  std::vector<size_t> sensitive_features_;
  /// Every key, one after another, sensitive_features_.size() values
  /// each, in ascending lexicographic order.
  std::vector<double> sorted_keys_;
  std::vector<size_t> sorted_groups_;  // group id of each sorted key
  std::vector<std::vector<double>> group_keys_;  // by group id
};

/// Partitions row indices of `data` by group id; result has
/// `index.num_groups()` buckets.
Result<std::vector<std::vector<size_t>>> RowsByGroup(const GroupIndex& index,
                                                     const Dataset& data);

}  // namespace falcc

#endif  // FALCC_DATA_GROUPS_H_
