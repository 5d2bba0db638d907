// Tests of the benchmark's own metric code (src/metrics.hpp). Exit 0
// when every check holds; each failure prints its line.
//   perfbench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_quantile() {
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  CHECK(near(perfbench::quantile(ramp(11), 0.9), 10));
  CHECK(std::isnan(perfbench::median({})));
}

// The tail percentile is the highest one keeping >= 10 samples beyond.
void test_tail_percentile() {
  CHECK(perfbench::tail_percentile_for(39) == 0);      // even p75 keeps 9
  CHECK(perfbench::tail_percentile_for(40) == 0.75);   // p75 keeps 10
  CHECK(perfbench::tail_percentile_for(99) == 0.75);   // p90 keeps 9
  CHECK(perfbench::tail_percentile_for(100) == 0.90);  // p90 keeps 10
  CHECK(perfbench::tail_percentile_for(120) == 0.90);  // p95 keeps 6
  CHECK(perfbench::tail_percentile_for(200) == 0.95);
  CHECK(perfbench::tail_percentile_for(1000) == 0.99);
  CHECK(perfbench::tail_percentile_for(10000) == 0.999);
  const perfbench::Summary s = perfbench::summarize(ramp(100));
  CHECK(s.n == 100 && s.tail_q == 0.90 && near(s.median, 50.5));
  CHECK(near(s.tail, perfbench::quantile(ramp(100), 0.90)));
  CHECK(std::isnan(perfbench::summarize(ramp(5)).tail));
}

// Self time is the span minus the union of its clipped children.
void test_self_time() {
  using perfbench::Interval;
  CHECK(near(perfbench::self_time({0, 10}, {}), 10));
  CHECK(near(perfbench::self_time({0, 10}, {{1, 3}, {5, 6}}), 7));
  // Overlapping children count once.
  CHECK(near(perfbench::self_time({0, 10}, {{1, 4}, {2, 5}}), 6));
  // A child sticking out of the span is clipped to it.
  CHECK(near(perfbench::self_time({0, 10}, {{-2, 1}, {9, 12}}), 8));
  // Fully covered.
  CHECK(near(perfbench::self_time({2, 4}, {{0, 5}}), 0));
}

// Same seed, same schedule; another seed, another one; the rate holds.
void test_poisson_schedule() {
  const auto a = perfbench::poisson_schedule(7, 8.0, 4000);
  const auto b = perfbench::poisson_schedule(7, 8.0, 4000);
  const auto c = perfbench::poisson_schedule(8, 8.0, 4000);
  CHECK(a == b);
  CHECK(a != c);
  bool ascending = a.front() > 0;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  CHECK(ascending);
  // Exactly n arrivals in n / rate seconds, gaps of mean 1 / rate.
  CHECK(a.back() < 4000 / 8.0);
  CHECK(a.back() > 4000 / 8.0 - 1.0);
  double gaps_below_mean = 0;
  for (std::size_t i = 1; i < a.size(); ++i) gaps_below_mean += a[i] - a[i - 1] < 1 / 8.0;
  // Exponential gaps: P(gap < mean) = 1 - 1/e = 0.632.
  CHECK(std::fabs(gaps_below_mean / (a.size() - 1) - 0.632) < 0.03);
}

// Latency runs from the due time: a generator that sent late does not
// hide its own lag.
void test_latency_from_due() {
  perfbench::Arrival late;
  late.due = 1.0;
  late.sent = 1.4;  // the generator stalled 0.4 s
  late.done = 1.5;
  CHECK(near(perfbench::latency(late), 0.5));
  perfbench::Arrival lost;
  lost.due = 2.0;
  lost.sent = 2.0;
  CHECK(std::isnan(perfbench::latency(lost)));
  perfbench::Arrival fine;
  fine.due = 3.0;
  fine.sent = 3.0;
  fine.done = 3.1;
  // Limit 0.2 s: `late` misses on its due-time latency (0.5 s) even
  // though send-to-done was only 0.1 s; `lost` is a miss; a failed
  // request misses regardless of its latency.
  CHECK(near(perfbench::slo_met_frac({late, lost, fine}, {false, false, false},
                                     0.2),
             1.0 / 3.0));
  CHECK(near(perfbench::slo_met_frac({fine}, {true}, 0.2), 0));
}

}  // namespace

int main() {
  test_quantile();
  test_tail_percentile();
  test_self_time();
  test_poisson_schedule();
  test_latency_from_due();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
