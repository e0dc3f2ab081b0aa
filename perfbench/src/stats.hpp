// Order statistics for the benchmark's timings.
//
// Every timing is reported as a median plus the highest percentile that has
// at least ten samples beyond it (fewer would make the tail one or two
// unlucky samples), together with the sample count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Candidate tail percentiles in per-mille, highest first.
inline constexpr unsigned kTailPerMille[] = {999, 990, 950, 900, 750};
inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly past the nearest-rank `per_mille` percentile of `n`
/// samples: n - ceil(n * p).  Integer arithmetic, so 99.9 % of 10000 is
/// exactly 9990 and leaves exactly 10 beyond.
inline std::size_t samples_beyond(std::size_t n, unsigned per_mille) {
  return n - (n * per_mille + 999) / 1000;
}

/// Highest percentile (per-mille) with at least kMinBeyond samples beyond
/// it, or 0 when even the 75th has fewer (report the median only).
inline unsigned tail_per_mille(std::size_t n) {
  for (unsigned p : kTailPerMille) {
    if (samples_beyond(n, p) >= kMinBeyond) return p;
  }
  return 0;
}

/// Nearest-rank percentile of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted,
                                unsigned per_mille) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = (sorted.size() * per_mille + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double lower_quartile = 0.0;  // nearest-rank p25
  unsigned tail_per_mille = 0;  // 0: no percentile qualifies
  double tail = 0.0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  s.median = median(v);
  std::sort(v.begin(), v.end());
  s.lower_quartile = percentile_sorted(v, 250);
  s.tail_per_mille = tail_per_mille(v.size());
  if (s.tail_per_mille != 0) s.tail = percentile_sorted(v, s.tail_per_mille);
  return s;
}

/// "p25 11.9 ms, p50 12.3 ms, p90 20.1 ms (n=140)" / "p25 0.98 s, p50 1.02 s
/// (n=9; no tail percentile has 10 samples beyond)".
inline std::string describe(const Summary& s, double scale, const char* unit) {
  char buf[200];
  if (s.tail_per_mille == 0) {
    std::snprintf(buf, sizeof buf,
                  "p25 %.4g %s, p50 %.4g %s (n=%zu; no tail percentile has %zu "
                  "samples beyond)",
                  s.lower_quartile * scale, unit, s.median * scale, unit, s.n,
                  kMinBeyond);
  } else {
    std::snprintf(buf, sizeof buf, "p25 %.4g %s, p50 %.4g %s, p%g %.4g %s (n=%zu)",
                  s.lower_quartile * scale, unit, s.median * scale, unit,
                  s.tail_per_mille / 10.0, s.tail * scale, unit, s.n);
  }
  return buf;
}

}  // namespace perfbench
