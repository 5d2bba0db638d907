#include "metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double tail_percentile_for(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    // Samples strictly beyond the q-quantile's rank.
    const double beyond = std::floor((1.0 - q) * static_cast<double>(n) + 1e-9);
    if (beyond >= 10) return q;
  }
  return 0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.median = median(samples);
  s.tail_q = tail_percentile_for(s.n);
  if (s.tail_q > 0) s.tail = quantile(samples, s.tail_q);
  return s;
}

double self_time(Interval span, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, span.start);
    c.end = std::min(c.end, span.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0;
  double reach = span.start;
  for (const Interval& c : children) {
    if (c.end <= c.start) continue;
    const double from = std::max(c.start, reach);
    if (c.end > from) covered += c.end - from;
    reach = std::max(reach, c.end);
  }
  return (span.end - span.start) - covered;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t n) {
  // Cumulative exponential gaps S_1..S_{n+1}; arrival i sits at
  // T * S_i / S_{n+1}, the order statistics of n uniform draws on
  // [0, T] — a Poisson process at `rate` conditioned on its count.
  acx::Xoshiro256 rng(seed);
  std::vector<double> due;
  due.reserve(n + 1);
  double t = 0;
  for (std::size_t i = 0; i <= n; ++i) {
    t += -std::log1p(-rng.next_double());
    due.push_back(t);
  }
  const double span = static_cast<double>(n) / rate;
  const double total = due.back();
  due.pop_back();
  for (double& d : due) d *= span / total;
  return due;
}

double latency(const Arrival& a) { return a.done - a.due; }

double slo_met_frac(const std::vector<Arrival>& arrivals,
                    const std::vector<bool>& failed, double limit) {
  if (arrivals.empty()) return 0;
  std::size_t met = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double l = latency(arrivals[i]);
    if (!failed[i] && std::isfinite(l) && l <= limit) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(arrivals.size());
}

}  // namespace perfbench
