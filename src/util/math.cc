#include "util/math.h"

#include <bit>
#include <cmath>
#include <limits>

#include "util/status.h"

namespace falcc {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  FALCC_CHECK(x.size() == y.size(), "Pearson: size mismatch");
  const size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return Clamp(sxy / std::sqrt(sxx * syy), -1.0, 1.0);
}

double PearsonPValue(double r, size_t n) {
  if (n < 3) return 1.0;
  const double df = static_cast<double>(n - 2);
  const double denom = 1.0 - r * r;
  if (denom <= 0.0) return 0.0;  // |r| == 1: perfectly correlated.
  const double t = r * std::sqrt(df / denom);
  // Two-sided: P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2).
  const double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

double LogGamma(double x) {
  // Lanczos approximation, g = 7, n = 9.
  static const double kCoef[9] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - LogGamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + static_cast<double>(i));
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
         std::log(a);
}

namespace {

// Continued fraction for the incomplete beta function (Lentz's method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-12;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  FALCC_CHECK(a > 0.0 && b > 0.0, "incomplete beta: a, b must be positive");
  x = Clamp(x, 0.0, 1.0);
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double df) {
  FALCC_CHECK(df > 0.0, "StudentTCdf: df must be positive");
  const double x = df / (df + t * t);
  const double tail = 0.5 * RegularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalQuantile(double p) {
  FALCC_CHECK(p > 0.0 && p < 1.0, "NormalQuantile: p must be in (0,1)");
  // Acklam's rational approximation.
  static const double a[6] = {-3.969683028665376e+01, 2.209460984245205e+02,
                              -2.759285104469687e+02, 1.383577518672690e+02,
                              -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[5] = {-5.447609879822406e+01, 1.615858368580409e+02,
                              -1.556989798598866e+02, 6.680131188771972e+01,
                              -1.328068155288572e+01};
  static const double c[6] = {-7.784894002430293e-03, -3.223964580411365e-01,
                              -2.400758277161838e+00, -2.549732539343734e+00,
                              4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[4] = {7.784695709041462e-03, 3.224671290700398e-01,
                              2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kPLow = 0.02425;
  double x;
  if (p < kPLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - kPLow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = NormalCdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  FALCC_CHECK(a.size() == b.size(), "SquaredDistance: size mismatch");
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredDistance(a, b));
}

LinearFit FitLine(std::span<const double> x, std::span<const double> y) {
  FALCC_CHECK(x.size() == y.size(), "FitLine: size mismatch");
  LinearFit fit;
  const size_t n = x.size();
  if (n < 2) {
    fit.intercept = Mean(y);
    return fit;
  }
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  if (sxx <= 0.0) {
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

size_t RoundUpPow2(size_t n) {
  FALCC_CHECK(n <= std::bit_floor(std::numeric_limits<size_t>::max()),
              "RoundUpPow2: no power of two >= n fits in size_t");
  return std::bit_ceil(n);
}

}  // namespace falcc
