// Exact order statistics over raw per-request samples.
//
// Percentiles are nearest-rank: the q-quantile of n sorted samples is
// the sample at 1-based rank ceil(q * n). No bucketing, so a reported
// value is always one a request actually took. A tail percentile is
// only trusted when at least `min_tail` samples lie beyond it; when the
// sample is too small for the requested q, the highest percentile it
// does support is reported instead and labelled as such.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lo::lsbench {

struct Quantile {
  double value = 0;
  /// The quantile actually reported (== requested unless the sample was
  /// too small to support it).
  double q = 0;
  size_t n = 0;
  /// Samples strictly beyond the reported rank.
  size_t beyond = 0;
  bool exact_q = false;

  /// "p99", "p98.5", ... for the quantile actually reported.
  std::string Label() const;
};

/// `samples` need not be sorted (a sorted copy is taken).
Quantile ExactQuantile(std::vector<double> samples, double q,
                       size_t min_tail = 10);

/// Median of a small vector (set-up repetitions); 0 when empty.
double Median(std::vector<double> values);

}  // namespace lo::lsbench
