#pragma once

// Orientation-independent RotD spectra (docs/SPECTRUM.md, "RotD
// sweep"). The horizontal pair (l, t) of one station is rotated over
// an angle sweep
//   a(θ_k) = l·cos θ_k + t·sin θ_k,   θ_k = k · 180° / angles,
// k = 0 .. angles-1, and the SA of every rotated series is evaluated
// on the (period, damping) grid. Per grid cell the percentiles over
// the sweep give RotD00 (min), RotD50 (median) and RotD100 (max); the
// geometric mean sqrt(SA_l · SA_t) of the unrotated components rides
// along.
//
// The sweep is computed by superposition (Boore 2010, BSSA 100(4)):
// the Nigam–Jennings recurrence is linear, so the absolute
// acceleration response to a(θ_k) is cos θ_k·A_l(t) + sin θ_k·A_t(t),
// and angle k's SA is max_t |cos θ_k·A_l + sin θ_k·A_t|. Per cell only
// the two component recurrences run, twice, with no trajectory stored:
// pass 1 finds max|A_l|, max|A_t| and the argmax points of 0°, 45°,
// 90° and 135°, which seed every angle's running peak; pass 2 re-runs
// the recurrence and skips a sample whose radius |(A_l, A_t)| is at
// most the smallest peak, or a sector of angles whose bound
// (|p·u_s| + sin(h_s)·|p·u_s⊥|)·(1 + 1e-12) is at most the sector's
// smallest peak. A skipped update could not have raised any peak, so
// the result is bit-identical to updating every angle at every sample.

#include <cstddef>
#include <vector>

#include "spectrum/response.hpp"
#include "util/result.hpp"

namespace acx::spectrum {

// 1° resolution over [0°, 180°) — rotating by 180° negates the trace
// and leaves |SA| unchanged, so a half-turn covers every orientation.
inline constexpr int kRotdDefaultAngles = 180;
inline constexpr int kRotdMaxAngles = 36000;

// RotD percentile SA spectra, damping-major like ResponseSpectrum.
struct RotdSpectrum {
  std::vector<double> periods;
  std::vector<double> dampings;
  int angles = 0;
  std::vector<double> rotd00, rotd50, rotd100;  // SA percentiles, cm/s2
  std::vector<double> geomean;                  // sqrt(SA_l * SA_t)

  std::size_t index(std::size_t d, std::size_t p) const {
    return d * periods.size() + p;
  }
};

// The superposed sweep. Fetches the (dt, grid) ResponsePlan from the
// process-global cache (timed as perf setup; the rest is perf kernel
// time). `threads > 1` fans blocks of kSdofBatchBlock cells across an
// OpenMP team with a static schedule; every block writes only its own
// cells, so the result is bit-identical for any team size. A response
// that goes non-finite anywhere (a finite input can overflow inside
// the kernel) fails with kNonFinite naming the lowest such cell.
Result<RotdSpectrum, SpectrumError> rotd_spectrum(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles = kRotdDefaultAngles,
    int threads = 1);

// Scalar reference: rotates the input pair in the time domain and
// runs one sdof_peak_response call per (angle, cell), no batching, no
// plan, no threads. The acceptance contract pins the superposed sweep
// to this to 1e-9 relative (tests/test_rotd.cpp); the bench compares
// their cost.
Result<RotdSpectrum, SpectrumError> rotd_spectrum_reference(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles = kRotdDefaultAngles);

namespace detail {

// Test oracle for the pruned peak search: the same superposed sweep,
// but every angle is updated at every sample, single-threaded. The
// pipeline never calls it; tests/test_rotd.cpp holds rotd_spectrum to
// it bit for bit.
Result<RotdSpectrum, SpectrumError> rotd_spectrum_unpruned(
    const std::vector<double>& acc_l, const std::vector<double>& acc_t,
    double dt, const ResponseGrid& grid, int angles);

}  // namespace detail

}  // namespace acx::spectrum
