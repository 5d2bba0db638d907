#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "formats/spectra.hpp"
#include "formats/v2.hpp"
#include "pipeline/validate.hpp"
#include "spectrum/response.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;

namespace {

// (damping index, period index) cells of the paper grid (dampings
// 0, 2, 5, 10, 20 % x 600 periods): damped cells only, see
// kCellTolerance.
constexpr int kCells[][2] = {{1, 40}, {2, 150}, {2, 299}, {3, 450}, {4, 599}};

bool close(double got, double want) {
  return std::fabs(got - want) <=
         kCellTolerance * std::max(std::fabs(want), 1e-12);
}

std::string describe(const char* what, const std::string& id, int d, int p,
                     double got, double want) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s %s cell (d%d,p%d): published %.6e, "
                "recomputed %.6e", what, id.c_str(), d, p, got, want);
  return buf;
}

bool read_v2_samples(acx::FileSystem& fs, const stdfs::path& path,
                     std::vector<double>& samples, double& dt, Gate& gate) {
  auto text = fs.read_file(path);
  if (!text.ok()) {
    gate.fail("cannot read " + path.string());
    return false;
  }
  auto v2 = acx::formats::read_v2(text.value());
  if (!v2.ok()) {
    gate.fail("cannot parse " + path.string());
    return false;
  }
  samples = std::move(v2.value().record.samples);
  dt = v2.value().record.header.dt;
  return true;
}

}  // namespace

void check_workdir(acx::FileSystem& fs, const stdfs::path& work_dir,
                   Gate& gate) {
  const acx::pipeline::ValidationSummary v =
      acx::pipeline::validate_workdir(fs, work_dir);
  for (const acx::pipeline::ValidationIssue& issue : v.issues) {
    gate.fail("validate " + work_dir.string() + ": " + issue.kind + ": " +
              issue.detail);
  }
}

std::string event_fingerprint(acx::FileSystem& fs,
                              const acx::pipeline::RunReport& report,
                              const stdfs::path& work_dir) {
  std::string fp = report.canonical_dump();
  auto outputs = fs.list_dir(work_dir / "out");
  if (!outputs.ok()) return fp + "\nout/ unreadable";
  for (const stdfs::path& p : outputs.value()) {
    auto bytes = fs.read_file(p);
    char line[96];
    std::snprintf(line, sizeof line, "\n%016llx ",
                  static_cast<unsigned long long>(
                      bytes.ok() ? acx::fnv1a64(bytes.value()) : 0));
    fp += line;
    fp += p.filename().string();
  }
  return fp;
}

void check_same_as_first(std::map<std::string, std::string>& first,
                         const std::string& key, const std::string& fingerprint,
                         Gate& gate) {
  auto [it, inserted] = first.emplace(key, fingerprint);
  if (!inserted && it->second != fingerprint) {
    gate.fail("event " + key + ": canonical report or output bytes differ "
              "between passes");
  }
}

void check_r_cells(acx::FileSystem& fs, const stdfs::path& out_dir,
                   const std::string& record_id, Gate& gate) {
  std::vector<double> acc;
  double dt = 0;
  if (!read_v2_samples(fs, out_dir / (record_id + ".v2"), acc, dt, gate)) return;
  auto text = fs.read_file(out_dir / (record_id + ".r"));
  if (!text.ok()) {
    gate.fail("cannot read " + record_id + ".r");
    return;
  }
  auto r = acx::formats::read_r(text.value());
  if (!r.ok()) {
    gate.fail("cannot parse " + record_id + ".r");
    return;
  }
  const acx::formats::RRecord& rr = r.value();
  for (const auto& cell : kCells) {
    const std::size_t d = static_cast<std::size_t>(cell[0]);
    const std::size_t p = static_cast<std::size_t>(cell[1]);
    if (d >= rr.dampings.size() || p >= rr.periods.size()) {
      gate.fail(record_id + ".r: grid smaller than the paper grid");
      return;
    }
    auto peaks =
        acx::spectrum::sdof_peak_response(acc, dt, rr.periods[p], rr.dampings[d]);
    if (!peaks.ok()) {
      gate.fail(record_id + ": sdof_peak_response failed");
      return;
    }
    const std::size_t i = rr.index(d, p);
    const acx::spectrum::SdofPeaks& want = peaks.value();
    if (!close(rr.sd[i], want.sd))
      gate.fail(describe("R SD", record_id, cell[0], cell[1], rr.sd[i], want.sd));
    if (!close(rr.sv[i], want.sv))
      gate.fail(describe("R SV", record_id, cell[0], cell[1], rr.sv[i], want.sv));
    if (!close(rr.sa[i], want.sa))
      gate.fail(describe("R SA", record_id, cell[0], cell[1], rr.sa[i], want.sa));
  }
}

void check_rotd_cells(acx::FileSystem& fs, const stdfs::path& out_dir,
                      const std::string& station, Gate& gate) {
  std::vector<double> l, t;
  double dt_l = 0, dt_t = 0;
  if (!read_v2_samples(fs, out_dir / (station + "l.v2"), l, dt_l, gate) ||
      !read_v2_samples(fs, out_dir / (station + "t.v2"), t, dt_t, gate)) {
    return;
  }
  auto text = fs.read_file(out_dir / (station + ".rotd"));
  if (!text.ok()) {
    gate.fail("cannot read " + station + ".rotd");
    return;
  }
  auto parsed = acx::formats::read_rotd(text.value());
  if (!parsed.ok()) {
    gate.fail("cannot parse " + station + ".rotd");
    return;
  }
  const acx::formats::RotdRecord& rd = parsed.value();
  const std::size_t angles = static_cast<std::size_t>(rd.angles);
  const double step = 3.14159265358979323846 / static_cast<double>(angles);
  std::vector<double> rotated(l.size());
  // Two cells keep the 2 x 180 oscillator runs cheap.
  for (const auto& cell : {kCells[1], kCells[3]}) {
    const std::size_t d = static_cast<std::size_t>(cell[0]);
    const std::size_t p = static_cast<std::size_t>(cell[1]);
    const double period = rd.periods.at(p);
    const double damping = rd.dampings.at(d);
    std::vector<double> sa;
    for (std::size_t k = 0; k < angles; ++k) {
      const double c = std::cos(step * static_cast<double>(k));
      const double s = std::sin(step * static_cast<double>(k));
      for (std::size_t j = 0; j < l.size(); ++j) rotated[j] = l[j] * c + t[j] * s;
      auto peaks = acx::spectrum::sdof_peak_response(rotated, dt_l, period, damping);
      if (!peaks.ok()) {
        gate.fail(station + ": sdof_peak_response failed on a rotated trace");
        return;
      }
      sa.push_back(peaks.value().sa);
    }
    std::sort(sa.begin(), sa.end());
    const double rotd50 = angles % 2 == 1
                              ? sa[angles / 2]
                              : 0.5 * (sa[angles / 2 - 1] + sa[angles / 2]);
    auto pl = acx::spectrum::sdof_peak_response(l, dt_l, period, damping);
    auto pt = acx::spectrum::sdof_peak_response(t, dt_t, period, damping);
    if (!pl.ok() || !pt.ok()) {
      gate.fail(station + ": sdof_peak_response failed on a component");
      return;
    }
    const double geomean = std::sqrt(pl.value().sa * pt.value().sa);
    const std::size_t i = rd.index(d, p);
    const struct {
      const char* what;
      double got, want;
    } cells[] = {{"RotD00", rd.rotd00[i], sa.front()},
                 {"RotD50", rd.rotd50[i], rotd50},
                 {"RotD100", rd.rotd100[i], sa.back()},
                 {"GEOMEAN", rd.geomean[i], geomean}};
    for (const auto& c : cells) {
      if (!close(c.got, c.want))
        gate.fail(describe(c.what, station, cell[0], cell[1], c.got, c.want));
    }
  }
}

void check_all_rotd_ok(const acx::pipeline::RunReport& report, Gate& gate) {
  for (const acx::pipeline::StationOutcome& st : report.stations) {
    if (st.rotd_status != "ok") {
      gate.fail("station " + st.station + ": rotd " + st.rotd_status + " (" +
                st.rotd_reason + ")");
    }
  }
}

void check_uniaxial(acx::FileSystem& fs, const acx::pipeline::RunReport& report,
                    const stdfs::path& work_dir, Gate& gate) {
  for (const acx::pipeline::StationOutcome& st : report.stations) {
    if (st.rotd_status != "skipped" ||
        st.rotd_reason != "station.missing_component") {
      gate.fail("uniaxial station " + st.station + ": rotd " + st.rotd_status +
                " (" + st.rotd_reason + "), expected a missing_component skip");
    }
  }
  auto files = fs.list_tree(work_dir);
  if (!files.ok()) {
    gate.fail("cannot list " + work_dir.string());
    return;
  }
  for (const stdfs::path& p : files.value()) {
    if (p.extension().string() == acx::formats::kRotdExtension) {
      gate.fail("uniaxial work dir published " + p.string());
    }
  }
}

}  // namespace perfbench
