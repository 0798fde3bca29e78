// Empirical Bernstein confidence half-widths (paper Lemma 3.6).
#ifndef CFCM_ESTIMATORS_BERNSTEIN_H_
#define CFCM_ESTIMATORS_BERNSTEIN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace cfcm {

/// \brief Half-width f(r, Xvar, Xsup, delta) of Lemma 3.6:
/// sqrt(2 Xvar log(3/delta) / r) + 3 Xsup log(3/delta) / r.
///
/// `sum` / `sum_sq` are running first/second moments of the r samples;
/// `sup` bounds |X_i - E X_i| (we pass the sample range).
double EmpiricalBernsteinHalfWidth(std::int64_t count, double sum,
                                   double sum_sq, double sup, double delta);

/// \brief Relative half-width of the ratio estimate Delta(u) = num / z
/// after r forests (DESIGN.md §3): the Lemma 3.6 width of z from its
/// moments (`sum_x`, `sum_sq_x`, bound `sup_x`) relative to z floored at
/// `z_floor`, plus the width of the sketched squared norm `num`, whose
/// rows' summed sample variance is `v_tot`, relative to `num`.
/// `log_term` is log(3 / delta), hoisted out of the per-node loops.
inline double RelativeHalfWidth(std::int64_t r, double sum_x, double sum_sq_x,
                                double sup_x, double delta, double log_term,
                                double v_tot, double num, double zu,
                                double z_floor) {
  const double inv_r = 1.0 / static_cast<double>(r);
  const double hz =
      EmpiricalBernsteinHalfWidth(r, sum_x, sum_sq_x, sup_x, delta);
  const double h_base = 2.0 * log_term * v_tot * inv_r;
  const double h_num = 2.0 * std::sqrt(num * h_base) + h_base;
  return h_num / std::max(num, 1e-300) + hz / std::max(zu, z_floor);
}

}  // namespace cfcm

#endif  // CFCM_ESTIMATORS_BERNSTEIN_H_
