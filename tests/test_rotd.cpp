// The RotD sweep (src/spectrum/rotd.cpp): the superposed sweep must
// match the scalar per-(angle, cell) reference to 1e-9 relative on
// ordinary and adversarial inputs, its pruned peak search must equal
// the unpruned all-angle update bit for bit, it must stay
// bit-identical across OpenMP team sizes, respect the RotD00 <= RotD50
// <= RotD100 ordering, be invariant under rotating the input pair by a
// sweep step, and fail with typed errors on malformed input and on a
// finite input that overflows inside the kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "spectrum/response.hpp"
#include "spectrum/rotd.hpp"
#include "util/rng.hpp"

namespace acx::spectrum {
namespace {

constexpr double kDt = 0.01;

// A deterministic band-limited pair: two decorrelated enveloped noise
// traces, different per component, so the sweep has real structure.
std::vector<double> make_component(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<double> acc(n);
  double lp = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * kDt;
    const double envelope = t * std::exp(-1.5 * t);
    lp += 0.35 * (rng.next_gaussian() - lp);
    acc[i] = 120.0 * envelope * lp;
  }
  return acc;
}

ResponseGrid small_grid() {
  ResponseGrid grid;
  grid.periods = {0.1, 0.2, 0.5, 1.0, 2.0};
  grid.dampings = {0.02, 0.05};
  return grid;
}

// The 1e-9 relative contract of rotd_spectrum against the reference.
void expect_matches_reference(const std::vector<double>& l,
                              const std::vector<double>& t,
                              const ResponseGrid& grid, int angles,
                              const char* what) {
  auto fast = rotd_spectrum(l, t, kDt, grid, angles);
  auto slow = rotd_spectrum_reference(l, t, kDt, grid, angles);
  ASSERT_TRUE(fast.ok()) << what << ": " << fast.error().to_string();
  ASSERT_TRUE(slow.ok()) << what << ": " << slow.error().to_string();

  const std::size_t cells = grid.periods.size() * grid.dampings.size();
  ASSERT_EQ(fast.value().rotd50.size(), cells) << what;
  const RotdSpectrum& f = fast.value();
  const RotdSpectrum& r = slow.value();
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_NEAR(f.rotd00[i], r.rotd00[i], 1e-9 * std::fabs(r.rotd00[i]))
        << what << " angles " << angles << " cell " << i;
    EXPECT_NEAR(f.rotd50[i], r.rotd50[i], 1e-9 * std::fabs(r.rotd50[i]))
        << what << " angles " << angles << " cell " << i;
    EXPECT_NEAR(f.rotd100[i], r.rotd100[i], 1e-9 * std::fabs(r.rotd100[i]))
        << what << " angles " << angles << " cell " << i;
    EXPECT_NEAR(f.geomean[i], r.geomean[i], 1e-9 * std::fabs(r.geomean[i]))
        << what << " angles " << angles << " cell " << i;
  }
}

struct NamedPair {
  const char* name;
  std::vector<double> l, t;
};

// Inputs that stress the superposition and the pruning bounds: every
// linear polarisation puts the trajectory on one line (a peak near 0
// at the perpendicular angle), the circular pair makes every angle's
// peak nearly equal, a single spike leaves free ringing only, and the
// all-zero pair never leaves the origin.
std::vector<NamedPair> adversarial_pairs(std::size_t n) {
  const auto l = make_component(21, n);
  std::vector<NamedPair> pairs;
  std::vector<double> neg(n), zero(n, 0.0), cosine(n), sine(n);
  for (std::size_t i = 0; i < n; ++i) {
    neg[i] = -l[i];
    const double time = static_cast<double>(i) * kDt;
    const double envelope = 80.0 * time * std::exp(-2.0 * time);
    cosine[i] = envelope * std::cos(2.0 * 3.14159265358979323846 * 3.0 * time);
    sine[i] = envelope * std::sin(2.0 * 3.14159265358979323846 * 3.0 * time);
  }
  std::vector<double> spike_l(n, 0.0), spike_t(n, 0.0);
  spike_l[n / 7] = 250.0;
  spike_t[n / 7] = -90.0;
  pairs.push_back({"t = l", l, l});
  pairs.push_back({"t = -l", l, neg});
  pairs.push_back({"t = 0", l, zero});
  pairs.push_back({"circular", cosine, sine});
  pairs.push_back({"single spike", spike_l, spike_t});
  pairs.push_back({"all zero", zero, zero});
  return pairs;
}

TEST(Rotd, BatchedSweepMatchesTheScalarReference) {
  const auto l = make_component(1, 400);
  const auto t = make_component(2, 400);
  expect_matches_reference(l, t, small_grid(), /*angles=*/16, "noise pair");
}

TEST(Rotd, AdversarialInputsMatchTheReferenceAtOddAngleCounts) {
  // 1, 2, 7 and 181 are not multiples of the sector count, so sectors
  // of one angle and of uneven widths are all exercised.
  ResponseGrid grid;
  grid.periods = {0.05, 0.3, 1.5};
  grid.dampings = {0.05};
  for (const NamedPair& pair : adversarial_pairs(300)) {
    for (int angles : {1, 2, 7, 181}) {
      expect_matches_reference(pair.l, pair.t, grid, angles, pair.name);
    }
  }
}

TEST(Rotd, PaperDampingsIncludingUndampedMatchTheReferenceAt180Angles) {
  ResponseGrid grid;
  grid.periods = {0.04, 0.25, 1.0, 4.0};
  grid.dampings = paper_grid().dampings;  // 0, 2, 5, 10, 20 %
  ASSERT_EQ(grid.dampings.front(), 0.0);
  const auto l = make_component(31, 300);
  const auto t = make_component(32, 300);
  expect_matches_reference(l, t, grid, kRotdDefaultAngles, "paper dampings");
}

TEST(Rotd, PrunedPeakSearchEqualsTheUnprunedUpdateBitForBit) {
  ResponseGrid grid;
  grid.periods = {0.05, 0.2, 0.7, 2.0, 6.0};
  grid.dampings = {0.0, 0.05};
  std::vector<NamedPair> pairs = adversarial_pairs(500);
  pairs.push_back({"noise pair", make_component(41, 500),
                   make_component(42, 500)});
  // Far outside the range where pruning compares squares: the search
  // must fall back to updating every angle and still agree exactly.
  for (double scale : {1e-120, 1e120}) {
    std::vector<double> l = make_component(43, 500);
    std::vector<double> t = make_component(44, 500);
    for (std::size_t i = 0; i < l.size(); ++i) {
      l[i] *= scale;
      t[i] *= scale;
    }
    pairs.push_back({scale < 1 ? "tiny pair" : "huge pair", l, t});
  }
  for (const NamedPair& pair : pairs) {
    for (int angles : {1, 2, 7, 16, 17, 180, 181}) {
      auto pruned = rotd_spectrum(pair.l, pair.t, kDt, grid, angles);
      auto full = detail::rotd_spectrum_unpruned(pair.l, pair.t, kDt, grid,
                                                 angles);
      ASSERT_TRUE(pruned.ok()) << pair.name << ": "
                               << pruned.error().to_string();
      ASSERT_TRUE(full.ok()) << pair.name << ": " << full.error().to_string();
      EXPECT_EQ(pruned.value().rotd00, full.value().rotd00)
          << pair.name << " angles " << angles;
      EXPECT_EQ(pruned.value().rotd50, full.value().rotd50)
          << pair.name << " angles " << angles;
      EXPECT_EQ(pruned.value().rotd100, full.value().rotd100)
          << pair.name << " angles " << angles;
      EXPECT_EQ(pruned.value().geomean, full.value().geomean)
          << pair.name << " angles " << angles;
    }
  }
}

TEST(Rotd, SweepIsBitIdenticalAcrossThreadCounts) {
  const auto l = make_component(3, 512);
  const auto t = make_component(4, 512);
  const ResponseGrid grid = small_grid();

  auto serial = rotd_spectrum(l, t, kDt, grid, /*angles=*/32, /*threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.error().to_string();
  for (int threads : {2, 3, 8}) {
    auto teamed = rotd_spectrum(l, t, kDt, grid, 32, threads);
    ASSERT_TRUE(teamed.ok()) << teamed.error().to_string();
    // Exact vector equality: every angle writes only its own SA slice
    // and the percentile combination runs after the sweep, so the team
    // size must not change a single bit.
    EXPECT_EQ(serial.value().rotd00, teamed.value().rotd00) << threads;
    EXPECT_EQ(serial.value().rotd50, teamed.value().rotd50) << threads;
    EXPECT_EQ(serial.value().rotd100, teamed.value().rotd100) << threads;
    EXPECT_EQ(serial.value().geomean, teamed.value().geomean) << threads;
  }
}

TEST(Rotd, PercentilesAreOrderedAndBracketTheComponents) {
  const auto l = make_component(5, 400);
  const auto t = make_component(6, 400);
  const ResponseGrid grid = small_grid();

  auto rotd = rotd_spectrum(l, t, kDt, grid);
  ASSERT_TRUE(rotd.ok()) << rotd.error().to_string();
  auto sa_l = response_spectrum(l, kDt, grid);
  ASSERT_TRUE(sa_l.ok());
  for (std::size_t i = 0; i < rotd.value().rotd50.size(); ++i) {
    EXPECT_LE(rotd.value().rotd00[i], rotd.value().rotd50[i]) << i;
    EXPECT_LE(rotd.value().rotd50[i], rotd.value().rotd100[i]) << i;
    EXPECT_GT(rotd.value().rotd00[i], 0.0) << i;
    // Angle 0 of the sweep is component l exactly, so l's SA is inside
    // the [RotD00, RotD100] envelope by construction.
    EXPECT_LE(rotd.value().rotd00[i], sa_l.value().sa[i] + 1e-12) << i;
    EXPECT_GE(rotd.value().rotd100[i], sa_l.value().sa[i] - 1e-12) << i;
  }
}

TEST(Rotd, RotatingTheInputPairByOneSweepStepLeavesPercentilesPut) {
  // Rotating (l, t) by exactly one sweep step shifts the sweep set by
  // one slot (the wrapped angle negates the trace, which |SA| ignores),
  // so the orientation-independent percentiles must not move.
  const auto l = make_component(7, 400);
  const auto t = make_component(8, 400);
  const int angles = 18;
  const double step = 3.14159265358979323846 / angles;
  std::vector<double> l2(l.size()), t2(l.size());
  for (std::size_t i = 0; i < l.size(); ++i) {
    l2[i] = l[i] * std::cos(step) + t[i] * std::sin(step);
    t2[i] = -l[i] * std::sin(step) + t[i] * std::cos(step);
  }
  const ResponseGrid grid = small_grid();
  auto a = rotd_spectrum(l, t, kDt, grid, angles);
  auto b = rotd_spectrum(l2, t2, kDt, grid, angles);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t i = 0; i < a.value().rotd50.size(); ++i) {
    EXPECT_NEAR(a.value().rotd00[i], b.value().rotd00[i],
                1e-9 * a.value().rotd00[i])
        << i;
    EXPECT_NEAR(a.value().rotd50[i], b.value().rotd50[i],
                1e-9 * a.value().rotd50[i])
        << i;
    EXPECT_NEAR(a.value().rotd100[i], b.value().rotd100[i],
                1e-9 * a.value().rotd100[i])
        << i;
  }
}

TEST(Rotd, GeomeanIsTheRootProductOfTheComponentSpectra) {
  const auto l = make_component(9, 300);
  const auto t = make_component(10, 300);
  const ResponseGrid grid = small_grid();

  auto rotd = rotd_spectrum(l, t, kDt, grid, /*angles=*/4);
  auto sa_l = response_spectrum(l, kDt, grid);
  auto sa_t = response_spectrum(t, kDt, grid);
  ASSERT_TRUE(rotd.ok() && sa_l.ok() && sa_t.ok());
  for (std::size_t i = 0; i < rotd.value().geomean.size(); ++i) {
    const double expect = std::sqrt(sa_l.value().sa[i] * sa_t.value().sa[i]);
    EXPECT_NEAR(rotd.value().geomean[i], expect, 1e-9 * expect) << i;
  }
}

TEST(Rotd, MalformedInputsFailWithTypedErrors) {
  const auto l = make_component(11, 64);
  const ResponseGrid grid = small_grid();

  std::vector<double> shorter(l.begin(), l.end() - 1);
  auto mismatch = rotd_spectrum(l, shorter, kDt, grid);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().code, SpectrumError::Code::kComponentMismatch);

  for (int bad_angles : {0, -1, kRotdMaxAngles + 1}) {
    auto bad = rotd_spectrum(l, l, kDt, grid, bad_angles);
    ASSERT_FALSE(bad.ok()) << bad_angles;
    EXPECT_EQ(bad.error().code, SpectrumError::Code::kBadAngleCount)
        << bad_angles;
  }

  const std::vector<double> empty;
  auto none = rotd_spectrum(empty, empty, kDt, grid);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, SpectrumError::Code::kEmptyInput);

  const std::vector<double> one(1, 1.0);
  auto tiny = rotd_spectrum(one, one, kDt, grid);
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.error().code, SpectrumError::Code::kTooShort);

  std::vector<double> poisoned = l;
  poisoned[7] = std::numeric_limits<double>::quiet_NaN();
  auto nan = rotd_spectrum(l, poisoned, kDt, grid);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.error().code, SpectrumError::Code::kNonFinite);

  // Finite samples whose response overflows inside the kernel: the
  // superposed sum cos·A_l + sin·A_t is inf, and the sweep must still
  // report it rather than let a NaN lose its way out of the peaks.
  const std::vector<double> huge(64, 1.5e308);
  auto overflow = rotd_spectrum(huge, huge, kDt, grid);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code, SpectrumError::Code::kNonFinite);
  EXPECT_EQ(std::string("spectrum.") + slug(overflow.error().code),
            "spectrum.non_finite");
  // With t = -l the two responses overflow to +inf and -inf at the same
  // sample, so at 1 or 2 angles every projection is NaN (0·inf,
  // inf - inf) and no peak ever sees the overflow: only the kernel's
  // own non-finite check on A_l and A_t can report it.
  std::vector<double> negated(huge.size(), -1.5e308);
  for (int angles : {1, 2}) {
    auto opposed = rotd_spectrum(huge, negated, kDt, grid, angles);
    ASSERT_FALSE(opposed.ok()) << angles;
    EXPECT_EQ(opposed.error().code, SpectrumError::Code::kNonFinite) << angles;
  }

  // The scalar reference enforces the same contract.
  auto ref = rotd_spectrum_reference(l, shorter, kDt, grid);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.error().code, SpectrumError::Code::kComponentMismatch);
}

}  // namespace
}  // namespace acx::spectrum
