// Deploying FALCC: train once, save the model, load it in a "serving
// process", and verify the loaded model classifies identically — the
// offline/online split of the paper taken to its operational conclusion.
// Exits 1 unless every decision agrees.

#include <cstdio>
#include <string>

#include "core/falcc.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "util/timer.h"

int main() {
  using namespace falcc;

  SyntheticConfig cfg;
  cfg.num_samples = 4000;
  cfg.seed = 77;
  const Dataset data = GenerateImplicitBias(cfg).value();
  const TrainValTest splits = SplitDatasetDefault(data, 77).value();

  // Offline phase ("training job").
  FalccOptions options;
  options.seed = 77;
  options.proxy.strategy = ProxyMitigation::kReweigh;
  Timer offline;
  const FalccModel trained =
      FalccModel::Train(splits.train, splits.validation, options).value();
  std::printf("offline phase: %.2fs (%zu models, %zu clusters)\n",
              offline.ElapsedSeconds(), trained.pool().size(),
              trained.num_clusters());

  const std::string path = "/tmp/falcc_deployed.model";
  if (!trained.SaveToFile(path).ok()) {
    std::fprintf(stderr, "save failed\n");
    return 1;
  }
  std::printf("saved model to %s\n", path.c_str());

  // Online phase ("serving process"): load and classify.
  Result<FalccModel> served = FalccModel::LoadMapped(path);
  if (!served.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 served.status().ToString().c_str());
    return 1;
  }

  Timer online;
  const std::vector<int> live = served.value().ClassifyAll(splits.test);
  const double micros =
      online.ElapsedSeconds() * 1e6 / splits.test.num_rows();

  const std::vector<int> reference = trained.ClassifyAll(splits.test);
  size_t agree = 0, correct = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    agree += live[i] == reference[i];
    correct += live[i] == splits.test.Label(i);
  }
  std::printf("served %zu samples at %.2f us/sample\n", live.size(), micros);
  std::printf("loaded model agreement with original: %zu/%zu\n", agree,
              live.size());
  std::printf("test accuracy: %.1f%%\n",
              100.0 * static_cast<double>(correct) / live.size());
  std::remove(path.c_str());
  return agree == live.size() ? 0 : 1;
}
