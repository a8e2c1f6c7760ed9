// Pins what model assessment selects. Small seeded FalccModels are
// trained under each of the four group metrics on a two-group and a
// four-group dataset (plus consistency mode on the two-group one), and
// each snapshot's content hash — which covers every cluster's selected
// combination and baseline L̂ bit for bit — must equal the line recorded
// in tests/golden/assessment_hashes.txt.
//
// Regenerate the file after an *intentional* assessment change with:
// FALCC_REGEN_GOLDENS=1 ./assessment_golden_test

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/benchmark_data.h"
#include "datagen/synthetic.h"

namespace falcc {
namespace {

FalccOptions SmallOptions() {
  FalccOptions options;
  options.seed = 42;
  options.trainer.estimator_grid = {5};
  options.trainer.depth_grid = {1, 4};
  options.trainer.pool_size = 3;
  options.fixed_k = 4;
  return options;
}

std::string HashLine(const std::string& name, const TrainValTest& split,
                     const FalccOptions& options) {
  const Result<FalccModel> model =
      FalccModel::Train(split.train, split.validation, options);
  EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
  if (!model.ok()) return name + " <train failed>\n";
  const Result<uint64_t> hash = model.value().ContentHash();
  EXPECT_TRUE(hash.ok()) << name << ": " << hash.status().ToString();
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash.ValueOr(0));
  return name + " " + hex + "\n";
}

TEST(AssessmentGoldenTest, SelectedCombinationsAndBaselinesArePinned) {
  SyntheticConfig config;
  config.num_samples = 1500;
  config.seed = 7;
  const TrainValTest two_groups =
      SplitDatasetDefault(GenerateImplicitBias(config).value(), 11).value();
  const TrainValTest four_groups =
      SplitDatasetDefault(
          GenerateBenchmarkDataset(AdultSexRaceSpec(), 5, 0.05).value(), 13)
          .value();

  std::string lines;
  for (const FairnessMetric metric :
       {FairnessMetric::kDemographicParity, FairnessMetric::kEqualizedOdds,
        FairnessMetric::kEqualOpportunity,
        FairnessMetric::kTreatmentEquality}) {
    FalccOptions options = SmallOptions();
    options.metric = metric;
    options.lambda = 0.35;
    lines += HashLine("implicit/" + FairnessMetricName(metric), two_groups,
                      options);
    lines += HashLine("adult_sex_race/" + FairnessMetricName(metric),
                      four_groups, options);
  }
  FalccOptions consistency = SmallOptions();
  consistency.assessment_mode = AssessmentMode::kConsistency;
  lines += HashLine("implicit/consistency", two_groups, consistency);

  const std::string path =
      std::string(FALCC_GOLDEN_DIR) + "/assessment_hashes.txt";
  if (std::getenv("FALCC_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    out << lines;
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with FALCC_REGEN_GOLDENS=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), lines);
}

}  // namespace
}  // namespace falcc
