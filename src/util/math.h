// Statistical and numeric helpers shared across the library: descriptive
// statistics, Pearson correlation with a two-sided significance test
// (Student-t via the regularized incomplete beta function), and small
// numeric utilities.

#ifndef FALCC_UTIL_MATH_H_
#define FALCC_UTIL_MATH_H_

#include <cstddef>
#include <span>
#include <vector>

namespace falcc {

/// Arithmetic mean; 0 for empty input.
double Mean(std::span<const double> xs);

/// Population variance (divides by n); 0 for fewer than 2 elements.
double Variance(std::span<const double> xs);

/// Population standard deviation.
double StdDev(std::span<const double> xs);

/// Pearson correlation coefficient between two equally sized samples.
/// Returns 0 when either sample has zero variance (no monotone
/// relationship measurable), matching the convention used for the proxy
/// weight formula (Eq. 1 of the paper).
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

/// Two-sided p-value for the hypothesis rho == 0, given a Pearson
/// correlation r over n samples (t-test with n-2 degrees of freedom).
/// Returns 1.0 when n < 3 or r is degenerate.
double PearsonPValue(double r, size_t n);

/// Natural-log gamma function (Lanczos approximation).
double LogGamma(double x);

/// Regularized incomplete beta function I_x(a, b) via the continued
/// fraction expansion (Numerical-Recipes style). Domain: x in [0,1],
/// a, b > 0.
double RegularizedIncompleteBeta(double a, double b, double x);

/// CDF of Student's t distribution with `df` degrees of freedom.
double StudentTCdf(double t, double df);

/// Standard normal CDF.
double NormalCdf(double x);

/// Inverse standard normal CDF (probit), Acklam's rational approximation
/// refined with one Halley step. Requires p in (0, 1).
double NormalQuantile(double p);

/// Numerically stable logistic sigmoid.
double Sigmoid(double x);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

/// Squared Euclidean distance between two equally sized vectors.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Euclidean distance between two equally sized vectors.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// Ordinary least squares fit y = slope * x + intercept.
/// Returns {slope, intercept}; slope is 0 for degenerate x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
};
LinearFit FitLine(std::span<const double> x, std::span<const double> y);

/// The smallest power of two >= n (1 for n = 0). Aborts when n is above
/// the largest power of two a size_t holds, where no such power exists.
size_t RoundUpPow2(size_t n);

}  // namespace falcc

#endif  // FALCC_UTIL_MATH_H_
