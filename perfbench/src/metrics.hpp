#pragma once
// Pure metric arithmetic of the benchmark: quantiles and the tail
// percentile rule, span self time, the open-loop arrival schedule and
// latency. No I/O, no clocks — perfbench_selftest pins every function
// here.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile, q in [0, 1] (the "inclusive" method of
// Python's statistics.quantiles). NaN for an empty sample.
double quantile(std::vector<double> samples, double q);
inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

// A timing as reported: median plus the highest of the standard tail
// percentiles {99.9, 99, 95, 90, 75} that keeps at least ten samples
// beyond it. tail_q is 0 when the sample is too small for any of them
// (fewer than 40 samples).
struct Summary {
  std::size_t n = 0;
  double median = std::numeric_limits<double>::quiet_NaN();
  double tail_q = 0;
  double tail = std::numeric_limits<double>::quiet_NaN();
};
double tail_percentile_for(std::size_t n);  // 0 when none qualifies
Summary summarize(const std::vector<double>& samples);

// A closed interval on one clock, seconds.
struct Interval {
  double start = 0;
  double end = 0;
};
// A span's self time: its duration minus the part of it that the
// union of its children covers (children are clipped to the span, and
// overlapping children count once).
double self_time(Interval span, std::vector<Interval> children);

// Open-loop arrivals: n due times (seconds from the schedule start) of
// a Poisson process at `rate` events/s, conditioned on n arrivals in
// n / rate seconds — so the offered load is exactly `rate` on every
// seed and only the burstiness varies. The same seed gives the same
// schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::size_t n);

// One offered request of an open loop. `sent` is when the generator
// actually submitted it (>= due when it ran late); `done` is when its
// result was published, NaN when it never was.
struct Arrival {
  double due = 0;
  double sent = 0;
  double done = std::numeric_limits<double>::quiet_NaN();
};
// Latency counts from the due time, so a generator stall charges its
// wait to every request it delayed. NaN for an unserved request.
double latency(const Arrival& a);
// Share of offered requests served within `limit` seconds; unserved,
// failed (`failed[i]` true) and late requests all count as misses.
double slo_met_frac(const std::vector<Arrival>& arrivals,
                    const std::vector<bool>& failed, double limit);

}  // namespace perfbench
