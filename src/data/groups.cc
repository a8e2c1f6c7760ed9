#include "data/groups.h"

#include <cmath>
#include <sstream>

#include "util/serialize.h"

namespace falcc {

namespace {

std::vector<double> SensitiveKey(std::span<const double> features,
                                 const std::vector<size_t>& sensitive) {
  std::vector<double> key;
  key.reserve(sensitive.size());
  for (size_t col : sensitive) key.push_back(features[col]);
  return key;
}

}  // namespace

bool GroupIndex::KeyLess::operator()(const std::vector<double>& a,
                                     const SampleKey& b) const {
  for (size_t i = 0; i < a.size() && i < b.columns.size(); ++i) {
    const double v = b.features[b.columns[i]];
    if (a[i] < v) return true;
    if (v < a[i]) return false;
  }
  return a.size() < b.columns.size();
}

bool GroupIndex::KeyLess::operator()(const SampleKey& a,
                                     const std::vector<double>& b) const {
  for (size_t i = 0; i < a.columns.size() && i < b.size(); ++i) {
    const double v = a.features[a.columns[i]];
    if (v < b[i]) return true;
    if (b[i] < v) return false;
  }
  return a.columns.size() < b.size();
}

Result<GroupIndex> GroupIndex::Build(const Dataset& data) {
  if (data.sensitive_features().empty()) {
    return Status::InvalidArgument(
        "GroupIndex requires at least one sensitive feature");
  }
  GroupIndex index;
  index.sensitive_features_ = data.sensitive_features();
  for (size_t i = 0; i < data.num_rows(); ++i) {
    std::vector<double> key =
        SensitiveKey(data.Row(i), index.sensitive_features_);
    auto [it, inserted] =
        index.key_to_group_.try_emplace(key, index.group_keys_.size());
    if (inserted) index.group_keys_.push_back(std::move(key));
  }
  if (index.group_keys_.empty()) {
    return Status::InvalidArgument("GroupIndex built on empty dataset");
  }
  return index;
}

Result<size_t> GroupIndex::GroupOf(std::span<const double> features) const {
  const auto it = key_to_group_.find(SampleKey{features, sensitive_features_});
  if (it == key_to_group_.end()) {
    return Status::NotFound("sensitive value combination not seen at build");
  }
  return it->second;
}

size_t GroupIndex::GroupOfOrNearest(std::span<const double> features) const {
  FALCC_CHECK(!group_keys_.empty(), "GroupOfOrNearest on empty index");
  const auto it =
      key_to_group_.find(SampleKey{features, sensitive_features_});
  if (it != key_to_group_.end()) return it->second;
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
    auto [it, inserted] = index.key_to_group_.try_emplace(key, g);
    if (!inserted) {
      return Status::InvalidArgument("GroupIndex: duplicate group key");
    }
    index.group_keys_.push_back(std::move(key));
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
