#pragma once
// The benchmark's correctness gate. Every check appends to a Gate; a
// run whose gate holds any error reports "correct": false.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "pipeline/report.hpp"
#include "util/fs.hpp"

namespace perfbench {

struct Gate {
  std::vector<std::string> errors;
  void fail(std::string what) { errors.push_back(std::move(what)); }
  bool ok() const { return errors.empty(); }
};

// Relative tolerance of the recomputed R and .rotd cells. The text
// formats carry five significant digits (%12.4e, docs/FORMATS.md), and
// the recomputation starts from V2 samples rounded that way. That
// rounding is white noise up to Nyquist: an undamped oscillator
// integrates it for the whole record and its cells near the band edge
// move by percents, while damped cells (2..20 %) moved by at most
// 6e-4 over the full paper grid of paper event 3. So the gate checks
// damped cells only, at 1e-3 — 1e-6 (the tolerance of the %.9e header
// fields) is out of reach for data cells. A wrong period, damping,
// angle or percentile moves a cell by more than 1e-2.
inline constexpr double kCellTolerance = 1e-3;

// pipeline::validate_workdir finds no issue.
void check_workdir(acx::FileSystem& fs, const std::filesystem::path& work_dir,
                   Gate& gate);

// The event's canonical report projection plus a hash of every
// published output's bytes — what must not change between passes.
std::string event_fingerprint(acx::FileSystem& fs,
                              const acx::pipeline::RunReport& report,
                              const std::filesystem::path& work_dir);

// Keeps the first fingerprint seen per event key; later ones must match.
void check_same_as_first(std::map<std::string, std::string>& first,
                         const std::string& key, const std::string& fingerprint,
                         Gate& gate);

// A fixed handful of R cells (SD, SV, SA) equal sdof_peak_response
// recomputed from the published V2 samples.
void check_r_cells(acx::FileSystem& fs, const std::filesystem::path& out_dir,
                   const std::string& record_id, Gate& gate);

// A fixed handful of .rotd cells equal the per-angle rotation of the
// published l/t V2 samples through sdof_peak_response: min, median and
// max over the sweep, and the geometric mean of the unrotated pair.
void check_rotd_cells(acx::FileSystem& fs, const std::filesystem::path& out_dir,
                      const std::string& station, Gate& gate);

// Triaxial inputs: every station published its .rotd.
void check_all_rotd_ok(const acx::pipeline::RunReport& report, Gate& gate);

// Uniaxial inputs: no .rotd anywhere under the work dir, and every
// station's RotD was skipped as station.missing_component — so these
// workloads cannot silently pick the RotD stage back up.
void check_uniaxial(acx::FileSystem& fs, const acx::pipeline::RunReport& report,
                    const std::filesystem::path& work_dir, Gate& gate);

}  // namespace perfbench
