// Sample accumulator with quantile/CDF helpers used by tests and benches.
#pragma once

#include <cstddef>
#include <vector>

namespace ndpsim {

class sample_set {
 public:
  void add(double v) { samples_.push_back(v); sorted_ = false; }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Quantile q in [0,1] by nearest-rank on the sorted samples.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }
  [[nodiscard]] double mean() const;
  /// Mean of the lowest `frac` fraction of samples (paper's "worst 10%").
  [[nodiscard]] double mean_lowest(double frac) const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace ndpsim
