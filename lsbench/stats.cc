#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lo::lsbench {

std::string Quantile::Label() const {
  char buf[32];
  double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", std::floor(pct * 10.0) / 10.0);
  }
  return buf;
}

Quantile ExactQuantile(std::vector<double> samples, double q, size_t min_tail) {
  std::sort(samples.begin(), samples.end());
  Quantile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  size_t n = samples.size();
  auto rank_for = [n](double quantile) {
    double r = std::ceil(quantile * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
  };
  size_t rank = rank_for(q);
  out.exact_q = true;
  out.q = q;
  if (n - rank < min_tail) {
    // Too few samples beyond the requested rank: fall back to the
    // highest rank that still leaves `min_tail` behind it (or the
    // median when even that is impossible).
    out.exact_q = false;
    rank = n > min_tail ? n - min_tail : rank_for(0.5);
    out.q = static_cast<double>(rank) / static_cast<double>(n);
  }
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace lo::lsbench
