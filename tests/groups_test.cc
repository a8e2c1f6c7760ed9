#include "data/groups.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>

#include "util/rng.h"

namespace falcc {
namespace {

// Two sensitive attributes (cols 1, 2) with 2 x 2 observed combinations.
Dataset MakeMultiAttr() {
  std::vector<double> features = {
      0.1, 0.0, 0.0,  //
      0.2, 0.0, 1.0,  //
      0.3, 1.0, 0.0,  //
      0.4, 1.0, 1.0,  //
      0.5, 0.0, 0.0,  //
  };
  return Dataset::Create({"f", "sex", "race"}, std::move(features), 3,
                         {0, 1, 0, 1, 1}, {1, 2})
      .value();
}

TEST(GroupIndexTest, DiscoversAllCombinations) {
  const Dataset d = MakeMultiAttr();
  Result<GroupIndex> index = GroupIndex::Build(d);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().num_groups(), 4u);
}

TEST(GroupIndexTest, GroupOfMapsRows) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  // Rows 0 and 4 share (0,0) so share a group id.
  EXPECT_EQ(index.GroupOf(d.Row(0)).value(), index.GroupOf(d.Row(4)).value());
  EXPECT_NE(index.GroupOf(d.Row(0)).value(), index.GroupOf(d.Row(1)).value());
}

TEST(GroupIndexTest, GroupOfUnseenFails) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  const std::vector<double> unseen = {0.0, 2.0, 7.0};
  EXPECT_FALSE(index.GroupOf(unseen).ok());
}

TEST(GroupIndexTest, GroupOfOrNearestFallsBack) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  // (0.9, 0.1) is nearest to key (1, 0) = row 2's group.
  const std::vector<double> sample = {0.0, 0.9, 0.1};
  EXPECT_EQ(index.GroupOfOrNearest(sample),
            index.GroupOf(d.Row(2)).value());
}

TEST(GroupIndexTest, GroupOfOrNearestExactMatch) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  EXPECT_EQ(index.GroupOfOrNearest(d.Row(3)),
            index.GroupOf(d.Row(3)).value());
}

TEST(GroupIndexTest, GroupsOfWholeDataset) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  Result<std::vector<size_t>> groups = index.GroupsOf(d);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups.value().size(), d.num_rows());
  EXPECT_EQ(groups.value()[0], groups.value()[4]);
}

TEST(GroupIndexTest, GroupNameContainsAttributes) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  const size_t g = index.GroupOf(d.Row(0)).value();
  const std::string name = index.GroupName(g, d);
  EXPECT_NE(name.find("sex="), std::string::npos);
  EXPECT_NE(name.find("race="), std::string::npos);
}

TEST(GroupIndexTest, BuildRequiresSensitiveFeatures) {
  const Dataset d =
      Dataset::Create({"f"}, {1.0, 2.0}, 1, {0, 1}, {}).value();
  EXPECT_FALSE(GroupIndex::Build(d).ok());
}

TEST(RowsByGroupTest, PartitionsRows) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  Result<std::vector<std::vector<size_t>>> buckets = RowsByGroup(index, d);
  ASSERT_TRUE(buckets.ok());
  ASSERT_EQ(buckets.value().size(), 4u);
  size_t total = 0;
  for (const auto& b : buckets.value()) total += b.size();
  EXPECT_EQ(total, d.num_rows());
  // Group of rows 0 and 4 has exactly those two rows.
  const size_t g = index.GroupOf(d.Row(0)).value();
  EXPECT_EQ(buckets.value()[g], (std::vector<size_t>{0, 4}));
}

// GroupOfOrNearest compares the sample's sensitive values in place
// (no key vector): exact keys must resolve like GroupOf, and unseen
// combinations to the lowest-index group at minimal squared distance.
TEST(GroupIndexTest, GroupOfOrNearestMatchesExactAndNearestReference) {
  const Dataset d = MakeMultiAttr();
  const GroupIndex index = GroupIndex::Build(d).value();
  const std::vector<std::vector<double>> samples = {
      {0.1, 0.0, 0.0},    // exact key (0,0)
      {0.2, 1.0, 1.0},    // exact key (1,1)
      {0.0, 2.0, 7.0},    // unseen, nearest (1,1)
      {0.0, 0.9, 0.1},    // unseen, nearest (1,0)
      {0.0, -3.0, 0.4},   // unseen, nearest (0,0)
      {0.0, 0.49, 0.51},  // near the decision boundary between keys
  };
  const std::vector<size_t>& columns = index.sensitive_features();
  for (const auto& sample : samples) {
    SCOPED_TRACE(::testing::Message()
                 << "sample starting " << sample[1] << "," << sample[2]);
    const Result<size_t> exact = index.GroupOf(sample);
    size_t expected = 0;
    if (exact.ok()) {
      expected = exact.value();
    } else {
      double best = 1e300;
      for (size_t g = 0; g < index.num_groups(); ++g) {
        double d2 = 0.0;
        for (size_t i = 0; i < columns.size(); ++i) {
          const double diff = sample[columns[i]] - index.GroupKey(g)[i];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          expected = g;
        }
      }
    }
    EXPECT_EQ(index.GroupOfOrNearest(sample), expected);
  }
}

// The flat sorted key array must answer exactly as the std::map it
// replaced: group ids by first appearance, -0.0 and 0.0 one key, unseen
// combinations NotFound for GroupOf and the lowest-index nearest key for
// GroupOfOrNearest — also after a serialization round trip.
TEST(GroupIndexTest, FlatKeysMatchAStdMapReference) {
  // Sensitive values drawn from here; 0.5 and 7.0 only ever in queries.
  const double built_values[] = {-0.0, 0.0, 1.0, 2.5, -3.0};
  const double query_values[] = {-0.0, 0.0, 1.0, 2.5, -3.0, 0.5, 7.0};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (size_t num_sensitive = 1; num_sensitive <= 3; ++num_sensitive) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed
                                        << " sensitive columns "
                                        << num_sensitive);
      Rng rng(seed * 10 + num_sensitive);
      // Column 0 is a plain feature; the sensitive columns follow.
      const size_t width = num_sensitive + 1;
      std::vector<size_t> sensitive;
      for (size_t c = 1; c <= num_sensitive; ++c) sensitive.push_back(c);
      std::vector<std::string> names(width, "x");
      const size_t rows = 1 + rng.UniformInt(60);
      std::vector<double> features;
      for (size_t r = 0; r < rows; ++r) {
        features.push_back(rng.Normal());
        for (size_t c = 0; c < num_sensitive; ++c) {
          features.push_back(built_values[rng.UniformInt(5)]);
        }
      }
      const Dataset data =
          Dataset::Create(names, features, width, std::vector<int>(rows, 0),
                          sensitive)
              .value();
      const GroupIndex index = GroupIndex::Build(data).value();

      std::map<std::vector<double>, size_t> reference;
      std::vector<std::vector<double>> reference_keys;
      const auto key_of = [&](std::span<const double> row) {
        std::vector<double> key;
        for (size_t col : sensitive) key.push_back(row[col]);
        return key;
      };
      for (size_t r = 0; r < rows; ++r) {
        std::vector<double> key = key_of(data.Row(r));
        if (reference.try_emplace(key, reference_keys.size()).second) {
          reference_keys.push_back(std::move(key));
        }
      }
      ASSERT_EQ(index.num_groups(), reference_keys.size());
      for (size_t g = 0; g < reference_keys.size(); ++g) {
        ASSERT_EQ(index.GroupKey(g), reference_keys[g]);
      }

      std::stringstream bytes;
      ASSERT_TRUE(index.Serialize(&bytes).ok());
      const GroupIndex loaded = GroupIndex::Deserialize(&bytes).value();

      for (int q = 0; q < 200; ++q) {
        std::vector<double> sample(width);
        sample[0] = rng.Normal();
        for (size_t c = 1; c < width; ++c) {
          sample[c] = query_values[rng.UniformInt(7)];
        }
        const std::vector<double> key = key_of(sample);
        const auto it = reference.find(key);
        size_t nearest = 0;
        if (it != reference.end()) {
          nearest = it->second;
        } else {
          double best = 1e300;
          for (size_t g = 0; g < reference_keys.size(); ++g) {
            double d2 = 0.0;
            for (size_t i = 0; i < key.size(); ++i) {
              const double diff = key[i] - reference_keys[g][i];
              d2 += diff * diff;
            }
            if (d2 < best) {
              best = d2;
              nearest = g;
            }
          }
        }
        for (const GroupIndex* under_test : {&index, &loaded}) {
          const Result<size_t> exact = under_test->GroupOf(sample);
          ASSERT_EQ(exact.ok(), it != reference.end());
          if (exact.ok()) ASSERT_EQ(exact.value(), it->second);
          ASSERT_EQ(under_test->GroupOfOrNearest(sample), nearest);
        }
      }
    }
  }
}

TEST(GroupIndexTest, DeserializeRejectsKeysEqualUpToTheSignOfZero) {
  std::stringstream bytes;
  {
    const Dataset d = MakeMultiAttr();
    const GroupIndex index = GroupIndex::Build(d).value();
    ASSERT_TRUE(index.Serialize(&bytes).ok());
  }
  // Rewrite the second key (0, 1) as (-0, 0): it now equals the first
  // key (0, 0) under the index's order, which Deserialize must refuse.
  std::string text = bytes.str();
  const size_t at = text.find("\n2 0 1\n");
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, 7, "\n2 -0 0\n");
  std::stringstream patched(text);
  EXPECT_FALSE(GroupIndex::Deserialize(&patched).ok());
}

}  // namespace
}  // namespace falcc
