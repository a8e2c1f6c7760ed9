#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*values)[lo] + ((*values)[hi] - (*values)[lo]) * frac;
}

double QuantileOf(std::vector<double> values, double q) {
  return Quantile(&values, q);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MedianBlockQuantile(const std::vector<double>& values, size_t block,
                           double q) {
  if (values.size() < block) return QuantileOf(values, q);
  std::vector<double> per_block;
  for (size_t begin = 0; begin + block <= values.size(); begin += block) {
    per_block.push_back(QuantileOf(
        std::vector<double>(values.begin() + begin,
                            values.begin() + begin + block),
        q));
  }
  return Quantile(&per_block, 0.5);
}

}  // namespace e2e
