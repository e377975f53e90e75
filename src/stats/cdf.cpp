#include "stats/cdf.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/assert.h"

namespace ndpsim {

void sample_set::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double sample_set::quantile(double q) const {
  NDPSIM_ASSERT(!samples_.empty());
  NDPSIM_ASSERT(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  const auto idx = static_cast<std::size_t>(
      std::min<double>(std::ceil(q * static_cast<double>(samples_.size())),
                       static_cast<double>(samples_.size())));
  return samples_[idx == 0 ? 0 : idx - 1];
}

double sample_set::mean() const {
  NDPSIM_ASSERT(!samples_.empty());
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double sample_set::mean_lowest(double frac) const {
  NDPSIM_ASSERT(!samples_.empty());
  NDPSIM_ASSERT(frac > 0.0 && frac <= 1.0);
  ensure_sorted();
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(frac * static_cast<double>(samples_.size())));
  return std::accumulate(samples_.begin(), samples_.begin() + n, 0.0) /
         static_cast<double>(n);
}

}  // namespace ndpsim
