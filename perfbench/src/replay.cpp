#include "replay.hpp"

#include <memory>
#include <utility>

#include "formats/component_set.hpp"
#include "formats/spectra.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/stage.hpp"
#include "metrics.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;
using acx::pipeline::RecordContext;

namespace {

// The src/ module a stage's self time is charged to.
const char* layer_of(const std::string& stage) {
  if (stage == "stage_in" || stage == "parse") return "formats.parse";
  if (stage == "bandpass") return "signal.bandpass";
  if (stage == "corners") return "spectrum.corners";
  if (stage == "fourier") return "spectrum.fourier";
  if (stage == "response") return "spectrum.response";
  if (stage == "write_v2") return "formats.write_v2";
  if (stage == "rotd") return "spectrum.rotd";
  return "signal.correct";  // calibrate, demean, detrend, integrate, peaks
}

// Runs `body` as one span of `stage` for `request`; its storage calls
// become the span's children and its self time is charged to the layer.
template <typename Body>
bool run_span(ObservedFileSystem& fs, const std::string& stage,
              const char* cat, const std::string& request, ReplayResult& out,
              Gate& gate, Body&& body) {
  Span span;
  span.name = "stage." + stage;
  span.cat = cat;
  span.request = request;
  span.tid = thread_index();
  span.id = next_span_id();
  ObservedFileSystem::set_context(request, span.id);
  span.start = now_s();
  auto result = body();
  span.end = now_s();
  ObservedFileSystem::set_context("", 0);
  std::vector<Interval> children;
  for (Span& child : fs.take_spans()) {
    children.push_back({child.start, child.end});
    out.spans.push_back(std::move(child));
  }
  out.layer_self_s[layer_of(stage)] +=
      self_time({span.start, span.end}, std::move(children));
  out.spans.push_back(std::move(span));
  if (!result.ok()) {
    gate.fail("replay " + request + " " + stage + ": " + result.error().reason);
    return false;
  }
  return true;
}

// Seconds spent re-writing one published spectrum after parsing it.
template <typename Read, typename Write>
double time_rewrite(const std::string& text, Read read, Write write,
                    const stdfs::path& path, Gate& gate) {
  auto parsed = read(text);
  if (!parsed.ok()) {
    gate.fail("round-trip: cannot parse " + path.string());
    return 0;
  }
  const double t0 = now_s();
  const std::string again = write(parsed.value());
  const double t1 = now_s();
  if (again.empty()) gate.fail("round-trip: empty rewrite of " + path.string());
  return t1 - t0;
}

}  // namespace

ReplayResult replay(acx::FileSystem& fs, const std::vector<EventInput>& events,
                    const stdfs::path& root, Gate& gate) {
  ReplayResult out;
  ObservedFileSystem traced(fs, /*trace=*/true);
  const acx::pipeline::CorrectionConfig correction;
  const acx::pipeline::SpectrumConfig spectrum;  // response_threads = 1
  const acx::pipeline::StageGraph graph =
      acx::pipeline::StageGraph::standard(correction, spectrum);
  std::vector<std::pair<std::string, std::unique_ptr<acx::pipeline::Stage>>> stages;
  for (const acx::pipeline::StageNode* node : graph.plan(true)) {
    stages.emplace_back(node->name,
                        acx::pipeline::make_stage(node->name, correction, spectrum));
  }
  auto rotd = acx::pipeline::make_station_stage("rotd", spectrum);
  const double grid_cells = static_cast<double>(spectrum.grid.periods.size() *
                                                spectrum.grid.dampings.size());

  const double t0 = now_s();
  for (const EventInput& event : events) {
    const stdfs::path base = root / event.id;
    const stdfs::path out_dir = base / "out";
    (void)fs.create_directories(out_dir);
    auto inputs = fs.list_dir(event.dir);
    if (!inputs.ok()) {
      gate.fail("replay: cannot list " + event.dir.string());
      continue;
    }
    std::vector<std::unique_ptr<RecordContext>> done;
    for (const stdfs::path& input : inputs.value()) {
      auto ctx = std::make_unique<RecordContext>();
      ctx->fs = &traced;
      ctx->input_path = input;
      ctx->record_id = input.stem().string();
      ctx->scratch_dir = base / "scratch" / ctx->record_id;
      ctx->out_dir = out_dir;
      (void)fs.create_directories(ctx->scratch_dir);
      bool ok = true;
      for (auto& [name, stage] : stages) {
        ok = run_span(traced, name, "stage", ctx->record_id, out, gate,
                      [&] { return stage->run(*ctx); });
        if (!ok) break;
        if (name == "response") {
          out.response_cells +=
              static_cast<double>(ctx->record.samples.size()) * grid_cells;
        }
      }
      if (ok) done.push_back(std::move(ctx));
    }

    // Station phase: stations with both horizontals of equal shape.
    std::map<std::string, std::pair<RecordContext*, RecordContext*>> pairs;
    for (auto& ctx : done) {
      const auto [station, component] = acx::formats::split_record_id(ctx->record_id);
      if (component == "l") pairs[station].first = ctx.get();
      if (component == "t") pairs[station].second = ctx.get();
    }
    for (auto& [station, lt] : pairs) {
      RecordContext* l = lt.first;
      RecordContext* t = lt.second;
      if (!l || !t || l->record.samples.size() != t->record.samples.size() ||
          l->record.header.dt != t->record.header.dt) {
        continue;
      }
      acx::pipeline::StationContext sc;
      sc.fs = &traced;
      sc.out_dir = out_dir;
      sc.station = station;
      sc.event_id = l->record.header.event_id;
      sc.date = l->record.header.date;
      sc.dt = l->record.header.dt;
      sc.comp_l = &l->record.samples;
      sc.comp_t = &t->record.samples;
      if (run_span(traced, "rotd", "station", station, out, gate,
                   [&] { return rotd->run(sc); })) {
        out.rotd_cells += static_cast<double>(l->record.samples.size()) *
                          grid_cells * spectrum.rotd_angles;
      }
    }

    // Writers of the published spectra, timed on their own.
    auto published = fs.list_dir(out_dir);
    for (const stdfs::path& p : published.ok() ? published.value()
                                               : std::vector<stdfs::path>{}) {
      auto text = fs.read_file(p);
      if (!text.ok()) continue;
      const std::string ext = p.extension().string();
      if (ext == acx::formats::kFExtension) {
        out.write_f_s += time_rewrite(text.value(), acx::formats::read_f,
                                      acx::formats::write_f, p, gate);
      } else if (ext == acx::formats::kRExtension) {
        out.write_r_s += time_rewrite(text.value(), acx::formats::read_r,
                                      acx::formats::write_r, p, gate);
      } else if (ext == acx::formats::kRotdExtension) {
        out.write_rotd_s += time_rewrite(text.value(), acx::formats::read_rotd,
                                         acx::formats::write_rotd, p, gate);
      }
    }
    (void)fs.remove_all(base);
  }
  out.wall_s = now_s() - t0;
  return out;
}

}  // namespace perfbench
