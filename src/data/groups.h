// Sensitive-group enumeration.
//
// Given sensitive attributes Sens = {A_1, ..., A_s}, the sensitive groups
// are G = dom(A_1) × ... × dom(A_s) (paper §3.1). GroupIndex discovers the
// observed domains from a dataset, assigns each value combination a dense
// group id, and maps arbitrary samples (including unseen test samples) to
// their group.

#ifndef FALCC_DATA_GROUPS_H_
#define FALCC_DATA_GROUPS_H_

#include <iosfwd>
#include <map>
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
  size_t num_groups() const { return key_to_group_.size(); }

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
  /// — the heterogeneous lookup key, so a query builds no key vector.
  struct SampleKey {
    std::span<const double> features;
    std::span<const size_t> columns;
  };
  /// Lexicographic order over stored keys and SampleKeys alike (the
  /// order std::vector<double>::operator< defines).
  struct KeyLess {
    using is_transparent = void;
    bool operator()(const std::vector<double>& a,
                    const std::vector<double>& b) const {
      return a < b;
    }
    bool operator()(const std::vector<double>& a, const SampleKey& b) const;
    bool operator()(const SampleKey& a, const std::vector<double>& b) const;
  };

  std::vector<size_t> sensitive_features_;
  std::map<std::vector<double>, size_t, KeyLess> key_to_group_;
  std::vector<std::vector<double>> group_keys_;  // by group id
};

/// Partitions row indices of `data` by group id; result has
/// `index.num_groups()` buckets.
Result<std::vector<std::vector<size_t>>> RowsByGroup(const GroupIndex& index,
                                                     const Dataset& data);

}  // namespace falcc

#endif  // FALCC_DATA_GROUPS_H_
