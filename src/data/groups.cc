#include "data/groups.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/serialize.h"

namespace falcc {

size_t GroupIndex::LowerBound(SampleKey key) const {
  const size_t width = sensitive_features_.size();
  // Sorted key `pos` < `key`, lexicographically (equal widths).
  const auto stored_less = [&](size_t pos) {
    const double* stored = sorted_keys_.data() + pos * width;
    for (size_t i = 0; i < width; ++i) {
      if (stored[i] < key[i]) return true;
      if (key[i] < stored[i]) return false;
    }
    return false;
  };
  size_t lo = 0;
  size_t hi = sorted_groups_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (stored_less(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool GroupIndex::KeyEquals(size_t pos, SampleKey key) const {
  if (pos >= sorted_groups_.size()) return false;
  const size_t width = sensitive_features_.size();
  const double* stored = sorted_keys_.data() + pos * width;
  for (size_t i = 0; i < width; ++i) {
    if (stored[i] < key[i] || key[i] < stored[i]) return false;
  }
  return true;
}

bool GroupIndex::IndexKeys() {
  std::vector<size_t> ids(group_keys_.size());
  std::iota(ids.begin(), ids.end(), size_t{0});
  std::stable_sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
    return group_keys_[a] < group_keys_[b];
  });
  sorted_keys_.clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && !(group_keys_[ids[i - 1]] < group_keys_[ids[i]])) {
      return false;
    }
    sorted_keys_.insert(sorted_keys_.end(), group_keys_[ids[i]].begin(),
                        group_keys_[ids[i]].end());
  }
  sorted_groups_ = std::move(ids);
  return true;
}

Result<GroupIndex> GroupIndex::Build(const Dataset& data) {
  if (data.sensitive_features().empty()) {
    return Status::InvalidArgument(
        "GroupIndex requires at least one sensitive feature");
  }
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("GroupIndex built on empty dataset");
  }
  GroupIndex index;
  index.sensitive_features_ = data.sensitive_features();
  const std::vector<size_t>& columns = index.sensitive_features_;
  // Rows sorted by key; stable, so each run of equal keys starts with
  // that key's first appearance.
  const auto row_less = [&](size_t a, size_t b) {
    const std::span<const double> ra = data.Row(a), rb = data.Row(b);
    for (size_t col : columns) {
      if (ra[col] < rb[col]) return true;
      if (rb[col] < ra[col]) return false;
    }
    return false;
  };
  std::vector<size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  std::stable_sort(rows.begin(), rows.end(), row_less);
  std::vector<size_t> first_rows;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || row_less(rows[i - 1], rows[i])) first_rows.push_back(rows[i]);
  }
  // Group ids in order of first appearance.
  std::sort(first_rows.begin(), first_rows.end());
  for (size_t row : first_rows) {
    std::vector<double>& key = index.group_keys_.emplace_back();
    for (size_t col : columns) key.push_back(data.Row(row)[col]);
  }
  index.IndexKeys();  // the keys are distinct by construction
  return index;
}

Result<size_t> GroupIndex::GroupOf(std::span<const double> features) const {
  const SampleKey key{features, sensitive_features_};
  const size_t pos = LowerBound(key);
  if (!KeyEquals(pos, key)) {
    return Status::NotFound("sensitive value combination not seen at build");
  }
  return sorted_groups_[pos];
}

size_t GroupIndex::GroupOfOrNearest(std::span<const double> features) const {
  FALCC_CHECK(!group_keys_.empty(), "GroupOfOrNearest on empty index");
  const SampleKey key{features, sensitive_features_};
  const size_t pos = LowerBound(key);
  if (KeyEquals(pos, key)) return sorted_groups_[pos];
  size_t best = 0;
  double best_d2 = 1e300;
  for (size_t g = 0; g < group_keys_.size(); ++g) {
    double d2 = 0.0;
    for (size_t i = 0; i < sensitive_features_.size(); ++i) {
      const double diff = features[sensitive_features_[i]] - group_keys_[g][i];
      d2 += diff * diff;
    }
    if (d2 < best_d2) {
      best_d2 = d2;
      best = g;
    }
  }
  return best;
}

Result<std::vector<size_t>> GroupIndex::GroupsOf(const Dataset& data) const {
  std::vector<size_t> groups(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    Result<size_t> g = GroupOf(data.Row(i));
    if (!g.ok()) return g.status();
    groups[i] = g.value();
  }
  return groups;
}

std::string GroupIndex::GroupName(size_t group, const Dataset& data) const {
  FALCC_CHECK(group < group_keys_.size(), "GroupName: group out of range");
  std::ostringstream out;
  out << '(';
  for (size_t i = 0; i < sensitive_features_.size(); ++i) {
    if (i > 0) out << ", ";
    out << data.feature_names()[sensitive_features_[i]] << '='
        << group_keys_[group][i];
  }
  out << ')';
  return out.str();
}

Status GroupIndex::Serialize(std::ostream* out) const {
  io::PrepareStream(out);
  io::WriteVector(out, sensitive_features_);
  *out << group_keys_.size() << '\n';
  for (const auto& key : group_keys_) {
    io::WriteVector(out, key);
  }
  if (!*out) return Status::IOError("GroupIndex serialization failed");
  return Status::OK();
}

Result<GroupIndex> GroupIndex::Deserialize(std::istream* in) {
  GroupIndex index;
  FALCC_RETURN_IF_ERROR(io::ReadVector(in, &index.sensitive_features_));
  if (index.sensitive_features_.empty()) {
    return Status::InvalidArgument("GroupIndex: no sensitive columns");
  }
  size_t num_groups = 0;
  FALCC_RETURN_IF_ERROR(io::Read(in, &num_groups));
  if (num_groups == 0 || num_groups > 1000000) {
    return Status::InvalidArgument("GroupIndex: implausible group count");
  }
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<double> key;
    FALCC_RETURN_IF_ERROR(io::ReadVector(in, &key));
    if (key.size() != index.sensitive_features_.size()) {
      return Status::InvalidArgument("GroupIndex: key width mismatch");
    }
    for (double v : key) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("GroupIndex: non-finite group key");
      }
    }
    index.group_keys_.push_back(std::move(key));
  }
  if (!index.IndexKeys()) {
    return Status::InvalidArgument("GroupIndex: duplicate group key");
  }
  return index;
}

Result<std::vector<std::vector<size_t>>> RowsByGroup(const GroupIndex& index,
                                                     const Dataset& data) {
  std::vector<std::vector<size_t>> buckets(index.num_groups());
  Result<std::vector<size_t>> groups = index.GroupsOf(data);
  if (!groups.ok()) return groups.status();
  for (size_t i = 0; i < data.num_rows(); ++i) {
    buckets[groups.value()[i]].push_back(i);
  }
  return buckets;
}

}  // namespace falcc
