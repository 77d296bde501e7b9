#include "core/inference.h"

#include <algorithm>
#include <cmath>

namespace wake {

double EstimateCardinality(double x, double t, double w) {
  if (x <= 0.0) return 0.0;
  if (t <= 0.0) return x;
  if (t >= 1.0) return x;
  return ScaleCardinality(x, std::pow(t, w));
}

double ScaleCardinality(double x, double t_pow_w) {
  if (x <= 0.0) return 0.0;
  return std::max(x / t_pow_w, x);
}

double EstimateSum(double y, double x, double xhat) {
  if (x <= 0.0) return y;
  return y * (xhat / x);
}

namespace {

// Digamma via the asymptotic series with the recurrence psi(x) =
// psi(x+1) - 1/x to shift the argument above 6.
double Digamma(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  double inv = 1.0 / x;
  double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0));
  return result;
}

}  // namespace

double LogH(double z, double x, double xhat) {
  // Requires xhat - x - z + 1 > 0 (caller enforces the domain).
  return std::lgamma(xhat - z + 1.0) + std::lgamma(xhat - x + 1.0) -
         std::lgamma(xhat - x - z + 1.0) - std::lgamma(xhat + 1.0);
}

double HPrime(double z, double x, double xhat) {
  double h = std::exp(LogH(z, x, xhat));
  // d(log h)/dz = -psi(xhat - z + 1) + psi(xhat - x - z + 1)
  double dlogh = -Digamma(xhat - z + 1.0) + Digamma(xhat - x - z + 1.0);
  return h * dlogh;
}

double EstimateCountDistinct(double y, double x, double xhat) {
  if (y <= 0.0) return 0.0;
  if (x <= 0.0 || xhat <= x * (1.0 + 1e-12)) return y;  // no growth expected
  // Solve g(Y) = Y(1 - h(xhat/Y)) - y = 0 on (lo, hi].
  // Domain: z = xhat/Y < xhat - x + 1  =>  Y > xhat / (xhat - x + 1).
  double lo = std::max(y, xhat / (xhat - x + 1.0) * (1.0 + 1e-9));
  double hi = xhat;
  if (lo >= hi) return std::min(std::max(y, lo), xhat);
  auto g = [&](double cand) {
    double z = xhat / cand;
    return cand * (1.0 - std::exp(LogH(z, x, xhat))) - y;
  };
  double glo = g(lo);
  double ghi = g(hi);  // = x - y >= 0
  if (glo >= 0.0) return lo;   // already above target at the lower bound
  if (ghi <= 0.0) return hi;   // y == x: every observed row distinct
  // Safeguarded Newton–Raphson: fall back to bisection when the Newton
  // step leaves the bracket (standard rtsafe scheme).
  double cand = 0.5 * (lo + hi);
  for (int iter = 0; iter < 60; ++iter) {
    double z = xhat / cand;
    double h = std::exp(LogH(z, x, xhat));
    double val = cand * (1.0 - h) - y;
    if (std::fabs(val) < 1e-9 * std::max(1.0, y)) break;
    if (val > 0.0) {
      hi = cand;
    } else {
      lo = cand;
    }
    // g'(Y) = 1 - h + z·h'(z)
    double deriv = 1.0 - h + z * HPrime(z, x, xhat);
    double next = deriv != 0.0 ? cand - val / deriv : cand;
    if (next <= lo || next >= hi || !std::isfinite(next)) {
      next = 0.5 * (lo + hi);
    }
    if (std::fabs(next - cand) < 1e-12 * std::max(1.0, cand)) {
      cand = next;
      break;
    }
    cand = next;
  }
  return std::clamp(cand, y, xhat);
}

}  // namespace wake
