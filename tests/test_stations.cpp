// The multi-component station layer end to end: a 3-component synth
// event rolls up into v7 StationOutcomes with a published .rotd per
// full station, the malformed-corpus pre-scan quarantines with typed
// station.* reasons (dt mismatch, duplicate component claim, short
// duration), a missing horizontal downgrades to a typed rotd skip, and
// acx_validate's audit stays clean through all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "formats/spectra.hpp"
#include "formats/v1.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/validate.hpp"
#include "synth/synth.hpp"
#include "test_helpers.hpp"

namespace acx::pipeline {
namespace {

RunnerConfig test_config() {
  RunnerConfig cfg;
  cfg.sleep = [](int) {};
  return cfg;
}

void build_small_event(FileSystem& fs, const std::filesystem::path& dir,
                       int n_files = 6) {
  synth::EventSpec spec = synth::paper_events()[0];
  spec.n_files = n_files;
  synth::SynthConfig cfg;
  cfg.scale = 0.02;
  auto written = synth::build_event_dataset(fs, dir, spec, cfg);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
}

formats::Record station_record(const std::string& station,
                               const std::string& component, long npts,
                               double dt = 0.005) {
  formats::Record rec;
  rec.header.station = station;
  rec.header.component = component;
  rec.header.event_id = "EV99";
  rec.header.date = "2020-01-01";
  rec.header.dt = dt;
  rec.header.npts = npts;
  rec.header.units = "counts";
  for (long i = 0; i < npts; ++i) {
    rec.samples.push_back(95.0 + 13.0 * static_cast<double>(i % 11) -
                          7.0 * static_cast<double>(i % 5));
  }
  return rec;
}

const StationOutcome* find_station(const RunReport& report,
                                   const std::string& name) {
  for (const StationOutcome& st : report.stations) {
    if (st.station == name) return &st;
  }
  return nullptr;
}

TEST(Stations, ThreeComponentEventRollsUpWithPublishedRotd) {
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 6);  // SS01{l,t,v} + SS02{l,t,v}

  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const RunReport& report = run.value();
  EXPECT_EQ(report.count_ok(), 6);
  ASSERT_EQ(report.stations.size(), 2u);

  for (const char* name : {"SS01", "SS02"}) {
    const StationOutcome* st = find_station(report, name);
    ASSERT_NE(st, nullptr) << name;
    std::vector<std::string> comps = st->components;
    std::sort(comps.begin(), comps.end());
    EXPECT_EQ(comps, (std::vector<std::string>{"l", "t", "v"})) << name;
    EXPECT_EQ(st->ok, 3) << name;
    EXPECT_EQ(st->quarantined, 0) << name;
    EXPECT_TRUE(st->checks.empty()) << name;
    ASSERT_EQ(st->rotd_status, "ok") << name;
    EXPECT_TRUE(st->rotd_reason.empty()) << name;

    // The published .rotd passes the strict reader, names this station,
    // swept the default 180 angles, and respects the percentile order.
    auto content = fs.read_file(st->rotd_output);
    ASSERT_TRUE(content.ok()) << name;
    auto rd = formats::read_rotd(content.value());
    ASSERT_TRUE(rd.ok()) << name << ": " << rd.error().to_string();
    EXPECT_EQ(rd.value().station, name);
    EXPECT_EQ(rd.value().angles, 180);
    for (std::size_t i = 0; i < rd.value().rotd50.size(); ++i) {
      EXPECT_LE(rd.value().rotd00[i], rd.value().rotd50[i]) << name;
      EXPECT_LE(rd.value().rotd50[i], rd.value().rotd100[i]) << name;
    }
    // The station stage was timed like any other stage.
    ASSERT_FALSE(st->stages.empty()) << name;
    EXPECT_EQ(st->stages.back().stage, "rotd") << name;
    EXPECT_TRUE(st->stages.back().ok) << name;
  }

  // The station stage shows up in the profile rollups, the written
  // report survives its own strict parser, and the audit is clean.
  EXPECT_TRUE(report.stage_totals().count("rotd"));
  auto text = fs.read_file(work / kRunReportFileName);
  ASSERT_TRUE(text.ok());
  auto parsed = RunReport::from_json_text(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().stations.size(), 2u);

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_TRUE(audit.clean()) << audit.issues.front().kind << ": "
                             << audit.issues.front().detail;
  EXPECT_EQ(audit.stations_rotd_ok, 2);
}

TEST(Stations, RotdStageAttributesItsKernelTime) {
  // The RotD kernel runs under perf::ScopedTimer like the record-stage
  // kernels, so a triaxial station run reports nonzero rotd kernel
  // time, never more than the stage's own wall clock.
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  build_small_event(fs, input, 3);  // SS01{l,t,v}

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  const RunReport& report = run.value();
  ASSERT_EQ(report.stations.size(), 1u);
  ASSERT_EQ(report.stations.front().rotd_status, "ok");

  const auto profile = report.stage_profile();
  ASSERT_TRUE(profile.count("rotd"));
  const double kernel = profile.at("rotd").kernel_seconds;
  const double seconds = report.stage_totals().at("rotd");
  EXPECT_GT(kernel, 0.0);
  EXPECT_LE(kernel, seconds);
  EXPECT_GE(profile.at("rotd").cache_hits + profile.at("rotd").cache_misses,
            1);
}

TEST(Stations, MissingHorizontalSkipsRotdWithTypedReason) {
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  const auto work = tmp.path() / "work";
  build_small_event(fs, input, 6);
  // Drop SS01's t component: the l and v records still publish, only
  // the station product is withheld.
  ASSERT_TRUE(fs.exists(input / "SS01t.v1"));
  ASSERT_TRUE(fs.remove_all(input / "SS01t.v1").ok());

  auto run = run_pipeline(fs, input, work, test_config());
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  EXPECT_EQ(report.count_ok(), 5);
  EXPECT_EQ(report.count_quarantined(), 0);

  const StationOutcome* partial = find_station(report, "SS01");
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(partial->ok, 2);
  EXPECT_EQ(partial->rotd_status, "skipped");
  EXPECT_EQ(partial->rotd_reason, "station.missing_component");
  EXPECT_TRUE(partial->rotd_output.empty());
  EXPECT_EQ(partial->checks,
            (std::vector<std::string>{"station.missing_component"}));

  const StationOutcome* full = find_station(report, "SS02");
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->rotd_status, "ok");

  const ValidationSummary audit = validate_workdir(fs, work);
  EXPECT_TRUE(audit.clean()) << audit.issues.front().kind << ": "
                             << audit.issues.front().detail;
  EXPECT_EQ(audit.stations_rotd_ok, 1);
}

TEST(Stations, DtMismatchQuarantinesEveryParsedMember) {
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  ASSERT_TRUE(fs.write_file(input / "TT01l.v1",
                            formats::write_v1(station_record("TT01", "l", 80)))
                  .ok());
  ASSERT_TRUE(
      fs.write_file(
            input / "TT01t.v1",
            formats::write_v1(station_record("TT01", "t", 80, /*dt=*/0.01)))
          .ok());
  ASSERT_TRUE(fs.write_file(input / "TT01v.v1",
                            formats::write_v1(station_record("TT01", "v", 80)))
                  .ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  ASSERT_EQ(report.records.size(), 3u);
  for (const RecordOutcome& r : report.records) {
    EXPECT_EQ(r.status, RecordOutcome::Status::kQuarantined) << r.record;
    EXPECT_EQ(r.reason, "station.dt_mismatch") << r.record;
    EXPECT_TRUE(fs.exists(r.quarantine)) << r.record;
  }
  const StationOutcome* st = find_station(report, "TT01");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->quarantined, 3);
  EXPECT_EQ(st->rotd_status, "skipped");
  const auto& checks = st->checks;
  EXPECT_NE(std::find(checks.begin(), checks.end(), "station.dt_mismatch"),
            checks.end());

  const ValidationSummary audit = validate_workdir(fs, tmp.path() / "work");
  EXPECT_TRUE(audit.clean()) << audit.issues.front().kind << ": "
                             << audit.issues.front().detail;
}

TEST(Stations, DuplicateComponentClaimQuarantinesBothClaimants) {
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  ASSERT_TRUE(fs.write_file(input / "TT01l.v1",
                            formats::write_v1(station_record("TT01", "l", 80)))
                  .ok());
  ASSERT_TRUE(fs.write_file(input / "TT01t.v1",
                            formats::write_v1(station_record("TT01", "t", 80)))
                  .ok());
  // The file named TT01v carries a header that claims component l —
  // two inputs of one station claiming one axis, no way to pick a
  // winner, so both claimants quarantine.
  ASSERT_TRUE(fs.write_file(input / "TT01v.v1",
                            formats::write_v1(station_record("TT01", "l", 80)))
                  .ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  const RunReport& report = run.value();
  ASSERT_EQ(report.records.size(), 3u);
  for (const RecordOutcome& r : report.records) {
    if (r.record == "TT01t") {
      EXPECT_EQ(r.status, RecordOutcome::Status::kOk) << r.record;
    } else {
      EXPECT_EQ(r.status, RecordOutcome::Status::kQuarantined) << r.record;
      EXPECT_EQ(r.reason, "station.duplicate_component") << r.record;
    }
  }
  const StationOutcome* st = find_station(report, "TT01");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->ok, 1);
  EXPECT_EQ(st->quarantined, 2);
  // The surviving t has no l to pair with: a typed skip, not a failure.
  EXPECT_EQ(st->rotd_status, "skipped");
  EXPECT_EQ(st->rotd_reason, "station.missing_component");

  const ValidationSummary audit = validate_workdir(fs, tmp.path() / "work");
  EXPECT_TRUE(audit.clean()) << audit.issues.front().kind << ": "
                             << audit.issues.front().detail;
}

TEST(Stations, ShortDurationHeaderPrequarantinesBelowTheFloor) {
  test::TempDir tmp("stations");
  RealFileSystem fs;
  const auto input = tmp.path() / "input";
  ASSERT_TRUE(fs.create_directories(input).ok());
  // 10 samples x 0.005 s = 0.05 s of signal, under the 0.1 s default
  // floor: quarantined by the pre-scan before any stage runs.
  ASSERT_TRUE(fs.write_file(input / "TT01l.v1",
                            formats::write_v1(station_record("TT01", "l", 10)))
                  .ok());

  auto run = run_pipeline(fs, input, tmp.path() / "work", test_config());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run.value().records.size(), 1u);
  const RecordOutcome& r = run.value().records[0];
  EXPECT_EQ(r.status, RecordOutcome::Status::kQuarantined);
  EXPECT_EQ(r.reason, "station.short_duration");
  // No stage ever ran on the poisoned slot.
  for (const StageAttempt& s : r.stages) {
    EXPECT_NE(s.stage, "parse");
  }

  // Raising the floor off: the same record only makes it to the
  // bandpass stage's own too-short check, proving the pre-scan (not
  // the signal chain) owned the earlier verdict.
  RunnerConfig relaxed = test_config();
  relaxed.min_station_duration_s = 0.0;
  auto rerun = run_pipeline(fs, input, tmp.path() / "work2", relaxed);
  ASSERT_TRUE(rerun.ok());
  ASSERT_EQ(rerun.value().records.size(), 1u);
  EXPECT_EQ(rerun.value().records[0].reason, "signal.too_short");
}

}  // namespace
}  // namespace acx::pipeline
