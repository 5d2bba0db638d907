#include "spectrum/rotd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "spectrum/response_plan.hpp"
#include "util/perf.hpp"
#include "util/simd.hpp"

namespace acx::spectrum {

namespace {

constexpr double kPi = 3.14159265358979323846;

// The sweep is cut into at most this many contiguous angle sectors for
// the pass-2 bound (fewer when there are fewer angles).
constexpr int kSectors = 16;
// Relative slack on every pruning bound. It covers the few-ulp rounding
// of the bound and of the projection it bounds, with orders to spare.
constexpr double kSlack = 1.0 + 1e-12;
// Pruning compares squares, so it is only trusted where no square can
// underflow or overflow: peaks and radii within [kTinyPeak, kHugePeak].
constexpr double kTinyPeak = 1e-100;
constexpr double kHugePeak = 1e100;
// Lanes and sectors are tracked in 32-bit sets.
static_assert(kSdofBatchBlock <= 32 && kSectors <= 32);

Result<Unit, SpectrumError> validate_pair(const std::vector<double>& acc_l,
                                          const std::vector<double>& acc_t,
                                          int angles) {
  if (angles < 1 || angles > kRotdMaxAngles) {
    return SpectrumError{SpectrumError::Code::kBadAngleCount,
                         "angle count must be in [1, " +
                             std::to_string(kRotdMaxAngles) + "]; got " +
                             std::to_string(angles)};
  }
  if (acc_l.size() != acc_t.size()) {
    return SpectrumError{SpectrumError::Code::kComponentMismatch,
                         "horizontal components disagree in length: l has " +
                             std::to_string(acc_l.size()) + " samples, t has " +
                             std::to_string(acc_t.size())};
  }
  if (acc_l.empty()) {
    return SpectrumError{SpectrumError::Code::kEmptyInput, "no samples"};
  }
  if (acc_l.size() < 2) {
    return SpectrumError{SpectrumError::Code::kTooShort,
                         "need at least 2 samples"};
  }
  // A NaN sample can slip through the peak accumulation (NaN loses
  // every max comparison), so the sweep checks its inputs up front.
  for (std::size_t i = 0; i < acc_l.size(); ++i) {
    if (!std::isfinite(acc_l[i]) || !std::isfinite(acc_t[i])) {
      return SpectrumError{SpectrumError::Code::kNonFinite,
                           "input sample " + std::to_string(i) +
                               " is not finite"};
    }
  }
  return Unit{};
}

// Percentiles of one cell's `na` per-angle SA values (sorted in place):
// RotD00/50/100 are the min / median / max, the median of an even count
// averaging the two middle order statistics.
void percentiles(double* column, std::size_t na, std::size_t cell,
                 RotdSpectrum& out) {
  std::sort(column, column + na);
  out.rotd00[cell] = column[0];
  out.rotd100[cell] = column[na - 1];
  out.rotd50[cell] = na % 2 == 1 ? column[na / 2]
                                 : 0.5 * (column[na / 2 - 1] + column[na / 2]);
}

RotdSpectrum empty_result(const ResponseGrid& grid, int angles,
                          std::size_t cells) {
  RotdSpectrum out;
  out.periods = grid.periods;
  out.dampings = grid.dampings;
  out.angles = angles;
  out.rotd00.resize(cells);
  out.rotd50.resize(cells);
  out.rotd100.resize(cells);
  out.geomean.resize(cells);
  return out;
}

// The sweep's unit directions u_k = (cos θ_k, sin θ_k), θ_k = k·180°/
// angles, and their cut into contiguous sectors. A sector of angles
// [begin, end) has centre u_s at the middle angle and half-width h_s;
// every u_k inside it is within h_s of u_s, so for any point p
//   |p·u_k| <= |p·u_s| + sin(h_s)·|p·u_s⊥|.
// A one-angle sector takes its angle's own direction, so its bound is
// the very projection the update would compute.
struct Sweep {
  int angles = 0;
  int sectors = 0;
  std::vector<double> c, s;
  std::vector<int> begin;  // sectors + 1 boundaries
  std::vector<double> uc, us, sin_half;

  explicit Sweep(int n) : angles(n), sectors(std::min(n, kSectors)) {
    const double step = kPi / static_cast<double>(angles);
    c.resize(angles);
    s.resize(angles);
    for (int k = 0; k < angles; ++k) {
      c[k] = std::cos(static_cast<double>(k) * step);
      s[k] = std::sin(static_cast<double>(k) * step);
    }
    for (int j = 0; j <= sectors; ++j) {
      begin.push_back(static_cast<int>(static_cast<long long>(j) * angles /
                                       sectors));
    }
    for (int j = 0; j < sectors; ++j) {
      const int k0 = begin[j];
      const int k1 = begin[j + 1];
      if (k1 - k0 == 1) {
        uc.push_back(c[k0]);
        us.push_back(s[k0]);
        sin_half.push_back(0.0);
      } else {
        const double mid = 0.5 * static_cast<double>(k0 + k1 - 1) * step;
        uc.push_back(std::cos(mid));
        us.push_back(std::sin(mid));
        sin_half.push_back(
            std::sin(0.5 * static_cast<double>(k1 - 1 - k0) * step));
      }
    }
  }
};

// Per-thread peak state of one block: every lane's running peak per
// angle (lane-major), its smallest peak per sector and overall, and the
// square of the latter (or -1 where pruning is off for the lane).
struct BlockPeaks {
  std::vector<double> peak;
  std::vector<double> sector_min;
  double min[kSdofBatchBlock] = {};
  double min2[kSdofBatchBlock] = {};

  explicit BlockPeaks(const Sweep& sw)
      : peak(kSdofBatchBlock * static_cast<std::size_t>(sw.angles)),
        sector_min(kSdofBatchBlock * static_cast<std::size_t>(sw.sectors)) {}
};

// The block body's helpers are always_inline, so each ISA clone of it
// compiles them for its own target: a call from the AVX2 clone into
// generic SSE code costs more than the work it does.

// The one per-angle update, shared by the seed, the pruned search and
// the unpruned oracle: |cos θ_k·x + sin θ_k·y| beats the running peak.
__attribute__((always_inline)) inline void update_angles(
    const Sweep& sw, int k0, int k1, double x, double y, double* peak) {
  for (int k = k0; k < k1; ++k) {
    const double v = std::fabs(sw.c[k] * x + sw.s[k] * y);
    if (v > peak[k]) peak[k] = v;
  }
}

__attribute__((always_inline)) inline double sector_min(const Sweep& sw,
                                                       int j,
                                                       const double* peak) {
  return *std::min_element(peak + sw.begin[j], peak + sw.begin[j + 1]);
}

__attribute__((always_inline)) inline void refresh_min2(
    const Sweep& sw, std::size_t lane, BlockPeaks& st) {
  const double* smin = st.sector_min.data() + lane * sw.sectors;
  const double m = *std::min_element(smin, smin + sw.sectors);
  st.min[lane] = m;
  st.min2[lane] = m >= kTinyPeak && m <= kHugePeak ? m * m : -1.0;
}

__attribute__((always_inline)) inline void refresh_minima(
    const Sweep& sw, std::size_t lane, BlockPeaks& st) {
  const double* peak = st.peak.data() + lane * sw.angles;
  double* smin = st.sector_min.data() + lane * sw.sectors;
  for (int j = 0; j < sw.sectors; ++j) smin[j] = sector_min(sw, j, peak);
  refresh_min2(sw, lane, st);
}

// Pass-2 visit of one trajectory point p = (x, y) of one lane. Sectors
// whose bound cannot beat their smallest running peak are skipped: the
// bound exceeds every projection in the sector, so a skipped angle's
// update would have been a no-op. Outside the trusted radius range (or
// for a non-finite p) every angle is updated, as the oracle does.
__attribute__((always_inline)) inline void visit(
    const Sweep& sw, std::size_t lane, double x, double y, BlockPeaks& st) {
  if (x == 0.0 && y == 0.0) return;  // projects to 0, never beats a peak
  double* peak = st.peak.data() + lane * sw.angles;
  const double r2 = x * x + y * y;
  if (!(r2 >= kTinyPeak * kTinyPeak && r2 <= kHugePeak * kHugePeak)) {
    update_angles(sw, 0, sw.angles, x, y, peak);
    refresh_minima(sw, lane, st);
    return;
  }
  // Sectors whose bound beats their smallest peak, as a bit set; a
  // sector's minimum only rises, so the lane's overall minimum needs a
  // rescan only when the sector that held it was updated.
  const double* uc = sw.uc.data();
  const double* us = sw.us.data();
  const double* sin_half = sw.sin_half.data();
  double* smin = st.sector_min.data() + lane * sw.sectors;
  std::uint32_t over = 0;
#pragma omp simd reduction(| : over)
  for (int j = 0; j < sw.sectors; ++j) {
    const double along = x * uc[j] + y * us[j];
    const double across = y * uc[j] - x * us[j];
    const double bound =
        (std::fabs(along) + sin_half[j] * std::fabs(across)) * kSlack;
    over |= static_cast<std::uint32_t>(bound > smin[j]) << j;
  }
  bool rescan = false;
  for (; over != 0; over &= over - 1) {
    const int j = std::countr_zero(over);
    rescan = rescan || smin[j] == st.min[lane];
    update_angles(sw, sw.begin[j], sw.begin[j + 1], x, y, peak);
    smin[j] = sector_min(sw, j, peak);
  }
  if (rescan) refresh_min2(sw, lane, st);
}

// One sample of the paired l/t recurrence over a block of b cells
// from `start`: each lane is the batch kernel's recurrence for one
// cell, in the batch kernel's op order, on l and t side by side, and
// leaves the absolute accelerations A = two_zw·v + w²·x in al/at.
// Lanes are independent oscillators, so the loop vectorizes without
// changing any rounding.
struct PairState {
  double xl[kSdofBatchBlock], vl[kSdofBatchBlock];
  double xt[kSdofBatchBlock], vt[kSdofBatchBlock];
  double al[kSdofBatchBlock], at[kSdofBatchBlock];
};

__attribute__((always_inline)) inline void pair_step(
    const ResponsePlan& plan, std::size_t start, std::size_t b, double l0,
    double l1, double t0, double t1, PairState& ps) {
  const double* a11 = plan.a11.data() + start;
  const double* a12 = plan.a12.data() + start;
  const double* a21 = plan.a21.data() + start;
  const double* a22 = plan.a22.data() + start;
  const double* b11 = plan.b11.data() + start;
  const double* b12 = plan.b12.data() + start;
  const double* b21 = plan.b21.data() + start;
  const double* b22 = plan.b22.data() + start;
  const double* two_zw = plan.two_zw.data() + start;
  const double* w2 = plan.w2.data() + start;
#pragma omp simd
  for (std::size_t j = 0; j < b; ++j) {
    const double xl1 = a11[j] * ps.xl[j] + a12[j] * ps.vl[j] + b11[j] * l0 +
                       b12[j] * l1;
    const double vl1 = a21[j] * ps.xl[j] + a22[j] * ps.vl[j] + b21[j] * l0 +
                       b22[j] * l1;
    const double xt1 = a11[j] * ps.xt[j] + a12[j] * ps.vt[j] + b11[j] * t0 +
                       b12[j] * t1;
    const double vt1 = a21[j] * ps.xt[j] + a22[j] * ps.vt[j] + b21[j] * t0 +
                       b22[j] * t1;
    ps.xl[j] = xl1;
    ps.vl[j] = vl1;
    ps.xt[j] = xt1;
    ps.vt[j] = vt1;
    ps.al[j] = two_zw[j] * vl1 + w2[j] * xl1;
    ps.at[j] = two_zw[j] * vt1 + w2[j] * xt1;
  }
}

// Pass-1 record of the seed directions 0°, 45°, 90° and 135° per lane:
// the largest |projection| so far (up to a positive scale) and the
// trajectory point where it was reached.
constexpr int kSeeds = 4;
struct Seeds {
  double best[kSeeds][kSdofBatchBlock] = {};
  double x[kSeeds][kSdofBatchBlock] = {};
  double y[kSeeds][kSdofBatchBlock] = {};
};

// Raises `best` to `key` when key beats it; 1 when it did.
__attribute__((always_inline)) inline std::uint32_t raise(double& best,
                                                          double key) {
  const bool up = key > best;
  best = up ? key : best;
  return static_cast<std::uint32_t>(up);
}

// What every block of one sweep shares: the input pair, the plan, the
// directions, and the outputs each block writes at its own cells.
struct SweepJob {
  const double* acc_l;
  const double* acc_t;
  std::size_t n;
  const ResponsePlan& plan;
  const Sweep& sw;
  RotdSpectrum& out;
  std::vector<unsigned char>& bad;
};

// One block of cells [start, start + b): both passes, then the
// percentiles and geometric mean of every lane into `out`. `bad[cell]`
// is set for a cell whose response went non-finite anywhere.
// Instantiated per ISA through always_inline, like the batch kernel:
// the AVX2 clone differs only in vector width (no FMA, so no rounding
// changes), and the output is bit-identical across the SIMD toggle.
template <bool kPrune>
__attribute__((always_inline)) inline void rotd_block_body(
    const SweepJob& job, std::size_t start, std::size_t b, BlockPeaks& st) {
  const double* acc_l = job.acc_l;
  const double* acc_t = job.acc_t;
  const std::size_t n = job.n;
  const ResponsePlan& plan = job.plan;
  const Sweep& sw = job.sw;
  const std::size_t na = static_cast<std::size_t>(sw.angles);

  // Pass 1: max|A_l| and max|A_t| (the geomean, bit-identical to the
  // batch kernel's SA) and the argmax points of the four seed
  // directions 0°, 45°, 90° and 135°, plus a poison sum that turns NaN
  // as soon as any A_l or A_t is not finite.
  Seeds seeds;
  double poison[kSdofBatchBlock] = {};
  PairState ps = {};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    pair_step(plan, start, b, acc_l[i], acc_l[i + 1], acc_t[i], acc_t[i + 1],
              ps);
    // The maxima vectorize; the rare new argmax points are stored
    // afterwards, lane by lane from a bit set per direction.
    std::uint32_t hit0 = 0, hit1 = 0, hit2 = 0, hit3 = 0;
#pragma omp simd reduction(| : hit0, hit1, hit2, hit3)
    for (std::size_t j = 0; j < b; ++j) {
      const double al = ps.al[j];
      const double at = ps.at[j];
      poison[j] += (al - al) + (at - at);
      hit0 |= raise(seeds.best[0][j], std::fabs(al)) << j;
      hit1 |= raise(seeds.best[1][j], std::fabs(al + at)) << j;
      hit2 |= raise(seeds.best[2][j], std::fabs(at)) << j;
      hit3 |= raise(seeds.best[3][j], std::fabs(at - al)) << j;
    }
    const std::uint32_t hit[kSeeds] = {hit0, hit1, hit2, hit3};
    for (int d = 0; d < kSeeds; ++d) {
      for (std::uint32_t m = hit[d]; m != 0; m &= m - 1) {
        const int j = std::countr_zero(m);
        seeds.x[d][j] = ps.al[j];
        seeds.y[d][j] = ps.at[j];
      }
    }
  }

  for (std::size_t j = 0; j < b; ++j) {
    double* peak = st.peak.data() + j * na;
    std::fill(peak, peak + na, 0.0);
    if (kPrune) {
      for (int d = 0; d < kSeeds; ++d) {
        update_angles(sw, 0, sw.angles, seeds.x[d][j], seeds.y[d][j], peak);
      }
      refresh_minima(sw, j, st);
    }
  }

  // Pass 2: the same recurrence again. A sample whose radius cannot
  // beat the lane's smallest peak is skipped outright (no projection
  // exceeds the radius); the rest go through the sector bounds.
  ps = PairState{};
  for (std::size_t i = 0; i + 1 < n; ++i) {
    pair_step(plan, start, b, acc_l[i], acc_l[i + 1], acc_t[i], acc_t[i + 1],
              ps);
    if (!kPrune) {
      for (std::size_t j = 0; j < b; ++j) {
        update_angles(sw, 0, sw.angles, ps.al[j], ps.at[j],
                      st.peak.data() + j * na);
      }
      continue;
    }
    std::uint32_t hot = 0;
#pragma omp simd reduction(| : hot)
    for (std::size_t j = 0; j < b; ++j) {
      const double r2 = ps.al[j] * ps.al[j] + ps.at[j] * ps.at[j];
      hot |= static_cast<std::uint32_t>(!(r2 * kSlack <= st.min2[j])) << j;
    }
    for (; hot != 0; hot &= hot - 1) {
      const int j = std::countr_zero(hot);
      visit(sw, static_cast<std::size_t>(j), ps.al[j], ps.at[j], st);
    }
  }

  for (std::size_t j = 0; j < b; ++j) {
    const std::size_t cell = start + j;
    double* peak = st.peak.data() + j * na;
    bool finite = std::isfinite(poison[j]);
    for (std::size_t k = 0; k < na && finite; ++k) {
      finite = std::isfinite(peak[k]);
    }
    job.bad[cell] = finite ? 0 : 1;
    percentiles(peak, na, cell, job.out);
    job.out.geomean[cell] = std::sqrt(seeds.best[0][j] * seeds.best[2][j]);
  }
}

#if defined(__x86_64__) || defined(__i386__)
template <bool kPrune>
__attribute__((target("avx2"))) void rotd_block_avx2(const SweepJob& job,
                                                     std::size_t start,
                                                     std::size_t b,
                                                     BlockPeaks& st) {
  rotd_block_body<kPrune>(job, start, b, st);
}
#endif

template <bool kPrune>
void rotd_block(const SweepJob& job, std::size_t start, std::size_t b,
                BlockPeaks& st) {
#if defined(__x86_64__) || defined(__i386__)
  if (simd::enabled() && simd::avx2_supported()) {
    rotd_block_avx2<kPrune>(job, start, b, st);
    return;
  }
#endif
  rotd_block_body<kPrune>(job, start, b, st);
}

template <bool kPrune>
Result<RotdSpectrum, SpectrumError> rotd_superposed(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles, int threads) {
  auto valid = validate_pair(acc_l, acc_t, angles);
  if (!valid.ok()) return std::move(valid).take_error();

  std::shared_ptr<const ResponsePlan> plan;
  {
    perf::ScopedTimer setup(perf::ScopedTimer::kSetup);
    auto plan_or = ResponsePlanCache::instance().get(dt, grid);
    if (!plan_or.ok()) return std::move(plan_or).take_error();
    plan = std::move(plan_or).take();
  }
  perf::ScopedTimer kernel(perf::ScopedTimer::kKernel);
  const std::size_t cells = plan->cells;
  const Sweep sw(angles);
  RotdSpectrum out = empty_result(grid, angles, cells);
  std::vector<unsigned char> bad(cells, 0);

  // Blocks of cells touch disjoint outputs and a block's result does
  // not depend on which thread runs it, so the output is bit-identical
  // for any team size.
  const SweepJob job{acc_l.data(), acc_t.data(), acc_l.size(), *plan, sw,
                     out, bad};
  const long long blocks = static_cast<long long>(
      (cells + kSdofBatchBlock - 1) / kSdofBatchBlock);
#pragma omp parallel num_threads(threads) if (threads > 1)
  {
    BlockPeaks st(sw);
#pragma omp for schedule(static)
    for (long long blk = 0; blk < blocks; ++blk) {
      const std::size_t begin = static_cast<std::size_t>(blk) * kSdofBatchBlock;
      rotd_block<kPrune>(job, begin, std::min(kSdofBatchBlock, cells - begin),
                         st);
    }
  }

  for (std::size_t i = 0; i < cells; ++i) {
    if (bad[i]) {
      return SpectrumError{SpectrumError::Code::kNonFinite,
                           "oscillator response is not finite at cell " +
                               std::to_string(i)};
    }
  }
  return out;
}

}  // namespace

Result<RotdSpectrum, SpectrumError> rotd_spectrum(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles, int threads) {
  return rotd_superposed<true>(acc_l, acc_t, dt, grid, angles, threads);
}

namespace detail {

Result<RotdSpectrum, SpectrumError> rotd_spectrum_unpruned(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles) {
  return rotd_superposed<false>(acc_l, acc_t, dt, grid, angles, 1);
}

}  // namespace detail

Result<RotdSpectrum, SpectrumError> rotd_spectrum_reference(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles) {
  auto valid = validate_pair(acc_l, acc_t, angles);
  if (!valid.ok()) return std::move(valid).take_error();
  auto grid_ok = validate_grid(grid);
  if (!grid_ok.ok()) return std::move(grid_ok).take_error();

  const std::size_t periods = grid.periods.size();
  const std::size_t cells = grid.dampings.size() * periods;
  const std::size_t na = static_cast<std::size_t>(angles);
  std::vector<double> sa_by_cell(cells * na);
  std::vector<double> rotated(acc_l.size());
  const double step = kPi / static_cast<double>(angles);
  for (std::size_t k = 0; k < na; ++k) {
    const double c = std::cos(static_cast<double>(k) * step);
    const double s = std::sin(static_cast<double>(k) * step);
    for (std::size_t i = 0; i < acc_l.size(); ++i) {
      rotated[i] = acc_l[i] * c + acc_t[i] * s;
    }
    for (std::size_t cell = 0; cell < cells; ++cell) {
      auto peaks = sdof_peak_response(rotated, dt, grid.periods[cell % periods],
                                      grid.dampings[cell / periods]);
      if (!peaks.ok()) return std::move(peaks).take_error();
      sa_by_cell[cell * na + k] = peaks.value().sa;
    }
  }

  RotdSpectrum out = empty_result(grid, angles, cells);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    percentiles(sa_by_cell.data() + cell * na, na, cell, out);
    const double period = grid.periods[cell % periods];
    const double damping = grid.dampings[cell / periods];
    auto l = sdof_peak_response(acc_l, dt, period, damping);
    if (!l.ok()) return std::move(l).take_error();
    auto t = sdof_peak_response(acc_t, dt, period, damping);
    if (!t.ok()) return std::move(t).take_error();
    out.geomean[cell] = std::sqrt(l.value().sa * t.value().sa);
  }
  return out;
}

}  // namespace acx::spectrum
