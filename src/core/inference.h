// Aggregate inference: per-cell unbiased estimators of final aggregate
// values from partial observations (§5 of the paper).
//
// Given the observed group cardinality x at progress t and the fitted
// growth power w, the final cardinality estimate is x̂ = x / t^w (Eq 4).
// Each aggregate type then applies its estimator f(y, x, x̂) (§5.3):
//   count          -> x̂
//   sum            -> y·x̂/x
//   avg/var/stddev -> identity (ratios of scaled sums cancel, Eq 5)
//   count-distinct -> finite-population method-of-moments (Eq 6), solved
//                     by safeguarded Newton–Raphson over log-gamma
//   min/max/order  -> identity (latest value)
#ifndef WAKE_CORE_INFERENCE_H_
#define WAKE_CORE_INFERENCE_H_

namespace wake {

/// Final group-cardinality estimate x̂ = x / t^w (Eq 4). `t` in (0, 1];
/// never returns less than `x`.
double EstimateCardinality(double x, double t, double w);

/// EstimateCardinality(x, t, w) for 0 < t < 1, given `t_pow_w` = t^w: a
/// snapshot shares one t and one w, so it computes the power once.
double ScaleCardinality(double x, double t_pow_w);

/// Sum estimator f_sum = y·x̂/x (scale-up by the sampling ratio).
double EstimateSum(double y, double x, double xhat);

/// Finite-population method-of-moments count-distinct estimator (Eq 6):
/// solves y = Y·(1 − h(x̂/Y)) for Y, where (Eq 7)
///   h(z) = Γ(x̂−z+1)Γ(x̂−x+1) / (Γ(x̂−x−z+1)Γ(x̂+1)).
/// `y` = currently observed distinct count, `x` = current group cardinality,
/// `xhat` = estimated final cardinality. Returns a value in [y, x̂].
double EstimateCountDistinct(double y, double x, double xhat);

/// log h(z) from Eq 7 (exposed for the CI derivative computation);
/// requires 0 < z < xhat − x + 1.
double LogH(double z, double x, double xhat);

/// dh/dz evaluated via digamma differences (used by Eq 17–19).
double HPrime(double z, double x, double xhat);

}  // namespace wake

#endif  // WAKE_CORE_INFERENCE_H_
