// Order statistics for benchmark samples.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace e2e {

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). 0 for an empty sample. Sorts `values` in place.
double Quantile(std::vector<double>* values, double q);

/// Quantile of a copy, for samples the caller keeps in order.
double QuantileOf(std::vector<double> values, double q);

double Mean(const std::vector<double>& values);

/// Median, over consecutive blocks of `block` samples (a trailing partial
/// block is dropped; a sample shorter than one block is one block), of
/// each block's quantile `q`. A tail percentile of the whole sample is
/// set by its worst bursts — on a shared host, by whatever else ran in
/// them; the median block's tail is what a typical stretch of the run
/// saw.
double MedianBlockQuantile(const std::vector<double>& values, size_t block,
                           double q);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
