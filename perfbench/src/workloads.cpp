#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "inputs.hpp"
#include "memfs.hpp"
#include "metrics.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/runner.hpp"
#include "pipeline/serve.hpp"
#include "replay.hpp"
#include "tracefs.hpp"
#include "util/json.hpp"
#include "util/work_pool.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;
using acx::pipeline::RunReport;

namespace {

constexpr int kSetups = 3;
constexpr double kServeRate = 8.0;  // offered events/s, open loop
constexpr std::size_t kServeWarmEvents = 6;

enum class Kind { kTriaxial, kUniaxial, kServe };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  // Latency limit of slo_met_frac: an event whose result landed later
  // than this after it was due counts as a miss. About twice the p90
  // latency on a 4-core host, so that host drift alone (up to +35 %
  // within minutes) does not flip it.
  double latency_limit_s;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"triaxial-event", Kind::kTriaxial, 20.0},
    {"uniaxial-archive", Kind::kUniaxial, 5.0},
    {"aftershock-serve", Kind::kServe, 0.5},
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Everything one pass of a workload observed.
struct Pass {
  stdfs::path root;  // the pass's work root, removed after the checks
  double start = 0;
  double wall = 0;
  long long points = 0;
  std::vector<std::string> events;    // offered event ids
  std::vector<Arrival> arrivals;      // per offered event
  std::vector<bool> failed;           // per offered event
  std::vector<double> run_s;          // per offered event, NaN = unserved
  std::vector<double> event_seconds;  // per served event
  std::vector<RunReport> reports;     // per served event
  std::vector<stdfs::path> work_dirs;  // per served event
  std::vector<Publish> publishes;
  std::vector<Span> spans;            // storage spans (traced passes)
  acx::WorkPoolStats pool;            // counter deltas (serve)
};

// Failed, degraded or partly quarantined events count as failures; a
// RotD skip for want of a horizontal pair does not.
bool event_failed(const RunReport& r) {
  if (std::string(r.status()) != "ok" || r.count_quarantined() > 0) return true;
  for (const acx::pipeline::StationOutcome& st : r.stations) {
    if (st.rotd_status == "failed") return true;
  }
  return false;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void sleep_until(double t) {
  const double wait = t - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

class Bench {
 public:
  Bench(const Options& opts, const WorkloadSpec& spec, Outcome& out)
      : opts_(opts),
        spec_(spec),
        out_(out),
        fs_(opts.trace ? static_cast<acx::FileSystem&>(disk_) : mem_),
        root_(opts.trace ? opts.disk_root : opts.root) {}

  void run() {
    if (opts_.trace) {
      (void)fs_.remove_all(root_);
      run_traced();
      (void)fs_.remove_all(root_);
    } else {
      run_untraced();
      add("peak_rss_mb", "MB", peak_rss_mb());
    }
  }

 private:
  // Drops the previous set-up's inputs and pool, outside any timing.
  void discard_setup() {
    pool_.reset();
    (void)fs_.remove_all(root_ / "in");
  }

  // Set-up: inputs from the seed, then one untimed warm-up pass.
  Pass setup() {
    const stdfs::path in = root_ / "in";
    switch (spec_.kind) {
      case Kind::kTriaxial:
        events_ = build_triaxial(fs_, in, opts_.seed);
        break;
      case Kind::kUniaxial:
        events_ = build_uniaxial_archive(fs_, in, opts_.seed);
        break;
      case Kind::kServe: {
        const auto n = static_cast<std::size_t>(
            std::max(6.0, std::round(kServeRate * opts_.seconds)));
        events_ = build_aftershocks(fs_, in, opts_.seed, n);
        pool_ = std::make_unique<acx::WorkPool>(opts_.threads);
        break;
      }
    }
    if (spec_.kind != Kind::kServe) return run_pass(false);
    // The service warms up on a burst of the first few events.
    const std::vector<EventInput> warm(
        events_.begin(),
        events_.begin() + static_cast<std::ptrdiff_t>(kServeWarmEvents));
    return serve_pass(warm, std::vector<double>(warm.size(), 0.0), false);
  }

  Pass run_pass(bool trace) {
    switch (spec_.kind) {
      case Kind::kTriaxial: return event_pass(trace);
      case Kind::kUniaxial: return batch_pass(trace);
      case Kind::kServe: break;
    }
    // Open loop: the whole seeded Poisson schedule, one pass.
    return serve_pass(events_,
                      poisson_schedule(opts_.seed, kServeRate, events_.size()),
                      trace);
  }

  stdfs::path next_pass_root() {
    return root_ / ("pass" + std::to_string(++passes_));
  }

  // triaxial-event: one run_event call, full driver, closed loop.
  Pass event_pass(bool trace) {
    ObservedFileSystem fs(fs_, trace);
    Pass p;
    p.root = next_pass_root();
    acx::pipeline::RunnerConfig cfg;
    cfg.driver = acx::pipeline::Driver::kFullParallel;
    cfg.threads = opts_.threads;
    const EventInput& ev = events_.front();
    p.start = now_s();
    auto run = acx::pipeline::StageRunner(fs, cfg).run_event(
        ev.dir, p.root / "events" / "0" / ev.id);
    p.wall = now_s() - p.start;
    if (!run.ok()) out_.gate.fail("run_event: " + run.error().to_string());
    p.events = {ev.id};
    p.arrivals = {{p.start, p.start}};
    collect(fs, p);
    p.run_s = {p.wall};
    p.event_seconds = {p.wall};
    return p;
  }

  // uniaxial-archive: one BatchRunner batch, full driver, one event
  // worker, resume off, closed loop.
  Pass batch_pass(bool trace) {
    ObservedFileSystem fs(fs_, trace);
    Pass p;
    p.root = next_pass_root();
    acx::pipeline::BatchConfig cfg;
    cfg.runner.driver = acx::pipeline::Driver::kFullParallel;
    cfg.runner.threads = opts_.threads;
    cfg.event_workers = 1;
    cfg.resume = false;
    p.start = now_s();
    auto run = acx::pipeline::BatchRunner(fs, cfg).run(root_ / "in", p.root);
    p.wall = now_s() - p.start;
    if (!run.ok()) out_.gate.fail("batch: " + run.error().to_string());
    for (const EventInput& ev : events_) {
      p.events.push_back(ev.id);
      p.arrivals.push_back({p.start, p.start});
    }
    collect(fs, p);
    return p;
  }

  // aftershock-serve: a generator thread (this one) renames manifests
  // into the spool of an in-process SpoolServer at their due times.
  Pass serve_pass(const std::vector<EventInput>& events,
                  const std::vector<double>& due, bool trace) {
    ObservedFileSystem fs(fs_, trace);
    Pass p;
    p.root = next_pass_root();
    const stdfs::path spool = p.root / "spool";
    (void)fs_.create_directories(spool / "tmp");
    acx::pipeline::ServeConfig cfg;
    cfg.runner.threads = opts_.threads;
    cfg.pool = pool_.get();
    cfg.max_events = static_cast<long long>(events.size());
    acx::pipeline::SpoolServer server(fs, cfg);
    const acx::WorkPoolStats before = pool_->stats();

    std::atomic<bool> finished{false};
    std::string server_error;
    p.start = now_s();
    std::thread service([&] {
      auto run = server.run(spool, p.root);
      if (!run.ok()) server_error = run.error().to_string();
      finished = true;
    });
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double due_at = p.start + due[i];
      sleep_until(due_at);
      acx::Json manifest = acx::Json::object();
      manifest.set("event", events[i].id);
      manifest.set("input", events[i].dir.string());
      const std::string name = events[i].id + ".json";
      (void)fs_.write_file(spool / "tmp" / name, manifest.dump());
      (void)fs_.rename(spool / "tmp" / name, spool / name);
      p.events.push_back(events[i].id);
      p.arrivals.push_back({due_at, now_s()});
    }
    // A service that lost an event would wait forever for max_events.
    const double give_up = now_s() + 60.0;
    while (!finished && now_s() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!finished) {
      (void)fs_.write_file(spool / acx::pipeline::kServeShutdownSentinel, "");
    }
    service.join();
    if (!server_error.empty()) out_.gate.fail("serve: " + server_error);
    const acx::WorkPoolStats after = pool_->stats();
    p.pool.steals = after.steals - before.steals;
    p.pool.parks = after.parks - before.parks;
    p.pool.wakes = after.wakes - before.wakes;
    p.pool.injector_takes = after.injector_takes - before.injector_takes;
    collect(fs, p);
    double last = p.start;
    for (const Arrival& a : p.arrivals) {
      if (std::isfinite(a.done)) last = std::max(last, a.done);
    }
    p.wall = last - p.start;
    return p;
  }

  // Reads back what the pass published: each event's report, and when
  // its run_report.json landed.
  void collect(ObservedFileSystem& fs, Pass& p) {
    p.publishes = fs.take_publishes();
    p.spans = fs.take_spans();
    std::map<std::string, const Publish*> landed;
    for (const Publish& pub : p.publishes) {
      if (pub.path.filename() == acx::pipeline::kRunReportFileName) {
        landed.emplace(pub.path.parent_path().filename().string(), &pub);
      }
    }
    p.failed.assign(p.events.size(), true);
    p.run_s.assign(p.events.size(), std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i = 0; i < p.events.size(); ++i) {
      auto it = landed.find(p.events[i]);
      if (it == landed.end()) continue;  // unserved
      p.arrivals[i].done = it->second->t;
      const stdfs::path work_dir = it->second->path.parent_path();
      auto text = fs_.read_file(work_dir / acx::pipeline::kRunReportFileName);
      auto report = text.ok() ? RunReport::from_json_text(text.value())
                              : acx::Result<RunReport, std::string>(
                                    std::string("unreadable"));
      if (!report.ok()) {
        out_.gate.fail(p.events[i] + ": run_report.json: " + report.error());
        continue;
      }
      p.failed[i] = event_failed(report.value());
      p.points += report.value().total_points();
      p.run_s[i] = report.value().total_seconds;
      p.event_seconds.push_back(report.value().total_seconds);
      p.work_dirs.push_back(work_dir);
      p.reports.push_back(std::move(report).take());
    }
  }

  // The correctness gate over one pass; removes the pass's work dirs.
  void check(Pass& p) {
    for (std::size_t i = 0; i < p.reports.size(); ++i) {
      const RunReport& report = p.reports[i];
      const stdfs::path& work_dir = p.work_dirs[i];
      check_workdir(fs_, work_dir, out_.gate);
      check_same_as_first(fingerprints_, work_dir.filename().string(),
                          event_fingerprint(fs_, report, work_dir), out_.gate);
      if (spec_.kind == Kind::kTriaxial) {
        check_all_rotd_ok(report, out_.gate);
      } else {
        check_uniaxial(fs_, report, work_dir, out_.gate);
      }
    }
    if (!cells_checked_ && !p.reports.empty() &&
        !p.reports.front().records.empty()) {
      cells_checked_ = true;
      const RunReport& report = p.reports.front();
      const stdfs::path out_dir = p.work_dirs.front() / "out";
      // First and last record of the first event.
      for (const auto* r : {&report.records.front(), &report.records.back()}) {
        if (r->status == acx::pipeline::RecordOutcome::Status::kOk) {
          check_r_cells(fs_, out_dir, r->record, out_.gate);
        }
      }
      if (spec_.kind == Kind::kTriaxial && !report.stations.empty()) {
        check_rotd_cells(fs_, out_dir, report.stations.front().station,
                         out_.gate);
      }
    }
    out_.attempted += static_cast<long long>(p.events.size());
    out_.failed += std::count(p.failed.begin(), p.failed.end(), true);
    (void)fs_.remove_all(p.root);
  }

  void add(std::string name, std::string unit, double value,
           std::size_t samples = 1) {
    out_.metrics.push_back({std::move(name), std::move(unit), value, samples, {}});
  }
  // A metric over the passes, with the pooled per-event distribution
  // (median and tail percentile) for the detail line.
  void add_with_dist(std::string name, std::string unit, double value,
                     const std::vector<double>& per_event) {
    const Summary dist = summarize(per_event);
    out_.metrics.push_back(
        {std::move(name), std::move(unit), value, dist.n, dist});
  }

  void run_untraced() {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) {
      discard_setup();
      const double t0 = now_s();
      Pass warm = setup();
      setups.push_back(now_s() - t0);
      check(warm);
    }
    out_.attempted = 0;  // warm-up events are not part of the measurement
    out_.failed = 0;

    // Whole passes until less than half a pass of the window is left
    // (the serve pass alone spans the window).
    std::vector<Pass> passes;
    double measured = 0;
    do {
      passes.push_back(run_pass(false));
      measured += passes.back().wall;
      check(passes.back());
    } while (spec_.kind != Kind::kServe &&
             measured + 0.5 * passes.back().wall < opts_.seconds);

    // Per-pass figures first, then their median over the passes: a
    // pass mixes event sizes (six paper events), so a median over the
    // pooled events would jump between size clusters from run to run.
    std::vector<double> event_s, throughput, p50, p90, all_events, all_latencies;
    std::vector<Arrival> arrivals;
    std::vector<bool> failed;
    for (const Pass& p : passes) {
      event_s.push_back(std::accumulate(p.event_seconds.begin(),
                                        p.event_seconds.end(), 0.0) /
                        static_cast<double>(std::max<std::size_t>(
                            p.event_seconds.size(), 1)));
      throughput.push_back(static_cast<double>(p.points) / p.wall);
      all_events.insert(all_events.end(), p.event_seconds.begin(),
                        p.event_seconds.end());
      std::vector<double> latencies;
      for (std::size_t i = 0; i < p.arrivals.size(); ++i) {
        arrivals.push_back(p.arrivals[i]);
        failed.push_back(p.failed[i]);
        if (std::isfinite(latency(p.arrivals[i]))) {
          latencies.push_back(latency(p.arrivals[i]));
        }
      }
      p50.push_back(quantile(latencies, 0.5));
      p90.push_back(quantile(latencies, 0.9));
      all_latencies.insert(all_latencies.end(), latencies.begin(), latencies.end());
    }
    add("setup_s", "s", median(setups), setups.size());
    add_with_dist("event_s", "s", median(event_s), all_events);
    add("points_per_s", "points/s", median(throughput), throughput.size());
    add_with_dist("latency_p50_s", "s", median(p50), all_latencies);
    add_with_dist("latency_p90_s", "s", median(p90), all_latencies);
    add("slo_met_frac", "fraction",
        slo_met_frac(arrivals, failed, spec_.latency_limit_s), arrivals.size());
    add("ok_frac", "fraction",
        1.0 - static_cast<double>(out_.failed) /
                  static_cast<double>(std::max<long long>(out_.attempted, 1)),
        static_cast<std::size_t>(out_.attempted));
  }

  void run_traced() {
    Pass warm = setup();
    check(warm);
    out_.attempted = 0;
    out_.failed = 0;
    Pass plain = run_pass(false);
    Pass traced = run_pass(true);
    // Per-layer figures come from the traced pass; check() drops the
    // work dirs, so the publish-timeline and report figures go first.
    layer_metrics(plain, traced);
    check(plain);
    check(traced);
    ReplayResult rp = replay(fs_, events_, root_ / "replay", out_.gate);
    replay_metrics(rp);
    write_trace(traced, rp);
  }

  void layer_metrics(const Pass& plain, const Pass& p) {
    // Storage layer, from the traced pass's decorator spans.
    long long ops = 0, failed_ops = 0, bytes_read = 0, bytes_written = 0;
    double busy = 0;
    for (const Span& s : p.spans) {
      ++ops;
      busy += s.end - s.start;
      if (s.failed) ++failed_ops;
      if (s.name == "storage.read") bytes_read += s.bytes;
      if (s.name == "storage.write") bytes_written += s.bytes;
    }
    add("storage.ops", "count", static_cast<double>(ops));
    add("storage.busy_s", "s", busy);
    add("storage.bytes_read", "B", static_cast<double>(bytes_read));
    add("storage.bytes_written", "B", static_cast<double>(bytes_written));
    add("storage.failed_ops", "count", static_cast<double>(failed_ops));

    // Pipeline layer, from the reports and the publish timeline.
    double stage_s = 0, plan_setup = 0, record_phase = 0, station_phase = 0;
    long long hits = 0, misses = 0, retries = 0;
    for (std::size_t i = 0; i < p.reports.size(); ++i) {
      const RunReport& r = p.reports[i];
      for (const auto& [stage, seconds] : r.stage_totals()) stage_s += seconds;
      for (const auto& [stage, prof] : r.stage_profile()) {
        hits += prof.cache_hits;
        misses += prof.cache_misses;
        plan_setup += prof.setup_seconds;
      }
      retries += r.count_retries();
      // The event started total_seconds before its report landed; its
      // record phase ends with the last per-record publish into out/.
      const stdfs::path& work_dir = p.work_dirs[i];
      double report_at = 0, last_record = 0;
      for (const Publish& pub : p.publishes) {
        if (pub.path == work_dir / acx::pipeline::kRunReportFileName) {
          report_at = pub.t;
        } else if (pub.path.parent_path() == work_dir / "out" &&
                   pub.path.extension() != ".rotd") {
          last_record = std::max(last_record, pub.t);
        }
      }
      const double started = report_at - r.total_seconds;
      record_phase += std::max(0.0, last_record - started);
      station_phase += std::max(0.0, report_at - std::max(last_record, started));
    }
    add("pipeline.busy_frac", "fraction",
        stage_s / (opts_.threads * std::max(p.wall, 1e-9)));
    add("pipeline.record_phase_s", "s", record_phase);
    add("pipeline.station_phase_s", "s", station_phase);
    add("pipeline.plan_cache_hit_frac", "fraction",
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0);
    add("pipeline.plan_setup_s", "s", plan_setup);
    add("pipeline.retries", "count", static_cast<double>(retries));

    const double event_sum =
        std::accumulate(p.event_seconds.begin(), p.event_seconds.end(), 0.0);
    add("batch.overhead_s", "s",
        spec_.kind == Kind::kUniaxial ? p.wall - event_sum : 0.0);

    // Serve layer: queue wait = latency from due time minus run time.
    std::vector<double> waits, gen_lag;
    if (spec_.kind == Kind::kServe) {
      for (std::size_t i = 0; i < p.arrivals.size(); ++i) {
        gen_lag.push_back(p.arrivals[i].sent - p.arrivals[i].due);
        const double wait = latency(p.arrivals[i]) - p.run_s[i];
        if (std::isfinite(wait)) waits.push_back(wait);
      }
    }
    auto q_or_zero = [](const std::vector<double>& v, double q) {
      return v.empty() ? 0.0 : quantile(v, q);
    };
    add("serve.queue_wait_p50_s", "s", q_or_zero(waits, 0.5), waits.size());
    add("serve.queue_wait_p90_s", "s", q_or_zero(waits, 0.9), waits.size());
    add("serve.run_p50_s", "s",
        spec_.kind == Kind::kServe ? q_or_zero(p.event_seconds, 0.5) : 0.0,
        p.event_seconds.size());
    add("pool.steals", "count", static_cast<double>(p.pool.steals));
    add("pool.parks", "count", static_cast<double>(p.pool.parks));
    add("pool.wakes", "count", static_cast<double>(p.pool.wakes));
    add("pool.injector_takes", "count", static_cast<double>(p.pool.injector_takes));
    add("bench.gen_lag_p90_s", "s", q_or_zero(gen_lag, 0.9), gen_lag.size());

    add("bench.trace_overhead_frac", "fraction",
        median(p.event_seconds) / median(plain.event_seconds) - 1.0);
  }

  void replay_metrics(const ReplayResult& rp) {
    auto self = [&](const char* layer) {
      auto it = rp.layer_self_s.find(layer);
      return it == rp.layer_self_s.end() ? 0.0 : it->second;
    };
    const double rotd = self("spectrum.rotd");
    const double response = self("spectrum.response");
    add("spectrum.rotd.self_s", "s", rotd);
    add("spectrum.rotd.work_rate", "cells/s", rotd > 0 ? rp.rotd_cells / rotd : 0);
    add("spectrum.response.self_s", "s", response);
    add("spectrum.response.work_rate", "cells/s",
        response > 0 ? rp.response_cells / response : 0);
    for (const char* layer : {"spectrum.fourier", "spectrum.corners",
                              "signal.bandpass", "signal.correct",
                              "formats.parse", "formats.write_v2"}) {
      add(std::string(layer) + ".self_s", "s", self(layer));
    }
    add("formats.write_f_s", "s", rp.write_f_s);
    add("formats.write_r_s", "s", rp.write_r_s);
    add("formats.write_rotd_s", "s", rp.write_rotd_s);
    add("bench.replay_s", "s", rp.wall_s);
  }

  // Chrome trace-event JSON: pid 1 holds the traced pass's storage
  // spans, pid 2 the replay's stage spans with their storage children.
  void write_trace(const Pass& traced, const ReplayResult& rp) {
    if (opts_.trace_out.empty()) return;
    acx::Json events = acx::Json::array();
    auto meta = [&](int pid, const char* name) {
      acx::Json m = acx::Json::object();
      m.set("name", "process_name");
      m.set("ph", "M");
      m.set("pid", pid);
      acx::Json args = acx::Json::object();
      args.set("name", name);
      m.set("args", std::move(args));
      events.push(std::move(m));
    };
    meta(1, "traced pass (workload threads)");
    meta(2, "single-thread replay (stage spans)");
    auto emit = [&](int pid, const Span& s) {
      acx::Json e = acx::Json::object();
      e.set("name", s.name);
      e.set("cat", s.cat);
      e.set("ph", "X");
      e.set("ts", s.start * 1e6);
      e.set("dur", (s.end - s.start) * 1e6);
      e.set("pid", pid);
      e.set("tid", s.tid);
      acx::Json args = acx::Json::object();
      args.set("request", s.request);
      args.set("id", static_cast<double>(s.id));
      args.set("parent", static_cast<double>(s.parent));
      if (s.bytes > 0) args.set("bytes", static_cast<double>(s.bytes));
      if (s.failed) args.set("failed", true);
      e.set("args", std::move(args));
      events.push(std::move(e));
    };
    for (const Span& s : traced.spans) emit(1, s);
    for (const Span& s : rp.spans) emit(2, s);
    acx::Json root = acx::Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    (void)disk_.create_directories(opts_.trace_out.parent_path());
    if (!acx::atomic_write_file(disk_, opts_.trace_out, root.dump()).ok()) {
      out_.gate.fail("cannot write " + opts_.trace_out.string());
    }
  }

  const Options& opts_;
  const WorkloadSpec& spec_;
  Outcome& out_;
  // All program I/O: in memory when untraced (memfs.hpp says why), on
  // the disk under opts.disk_root when traced.
  MemFileSystem mem_;
  acx::RealFileSystem disk_;
  acx::FileSystem& fs_;
  const stdfs::path root_;
  std::vector<EventInput> events_;
  std::unique_ptr<acx::WorkPool> pool_;
  std::map<std::string, std::string> fingerprints_;
  bool cells_checked_ = false;
  int passes_ = 0;
};

}  // namespace

bool known_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  Bench(opts, *find_workload(opts.workload), out).run();
  return out;
}

}  // namespace perfbench
