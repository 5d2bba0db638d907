#include "inputs.hpp"

#include <cctype>
#include <cstdio>
#include <stdexcept>

#include "formats/v1.hpp"
#include "synth/synth.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace stdfs = std::filesystem;

namespace {

// Independent per-event synth seeds from the one benchmark seed.
std::uint64_t event_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + index;
  return acx::splitmix64(state);
}

EventInput build_one(acx::FileSystem& fs, const stdfs::path& root,
                     const std::string& id, int paper_event,
                     std::uint64_t seed, double scale, bool uniaxial) {
  const acx::synth::EventSpec spec = acx::synth::paper_events().at(paper_event - 1);
  acx::synth::SynthConfig cfg;
  cfg.seed = seed;
  cfg.scale = scale;
  EventInput in;
  in.id = id;
  in.dir = root / id;
  auto made = fs.create_directories(in.dir);
  if (!made.ok()) throw std::runtime_error(made.error().to_string());
  for (int i = 0; i < spec.n_files; ++i) {
    acx::formats::Record rec = acx::synth::make_record(spec, cfg, i);
    if (uniaxial) {
      // SS01 + l -> station SS01L, record SS01Ll: a station of its own.
      rec.header.station += static_cast<char>(
          std::toupper(static_cast<unsigned char>(rec.header.component[0])));
    }
    auto wrote = acx::atomic_write_file(
        fs, in.dir / (rec.header.id() + std::string(acx::formats::kV1Extension)),
        acx::formats::write_v1(rec));
    if (!wrote.ok()) throw std::runtime_error(wrote.error().to_string());
  }
  return in;
}

}  // namespace

std::vector<EventInput> build_triaxial(acx::FileSystem& fs,
                                       const stdfs::path& root,
                                       std::uint64_t seed) {
  return {build_one(fs, root, "EV03", 3, event_seed(seed, 3), 1.0, false)};
}

std::vector<EventInput> build_uniaxial_archive(acx::FileSystem& fs,
                                               const stdfs::path& root,
                                               std::uint64_t seed) {
  std::vector<EventInput> events;
  for (int e = 1; e <= 6; ++e) {
    char id[8];
    std::snprintf(id, sizeof id, "EV%02d", e);
    events.push_back(build_one(fs, root, id, e, event_seed(seed, e), 1.0, true));
  }
  return events;
}

std::vector<EventInput> build_aftershocks(acx::FileSystem& fs,
                                          const stdfs::path& root,
                                          std::uint64_t seed, std::size_t n) {
  std::vector<EventInput> events;
  for (std::size_t i = 0; i < n; ++i) {
    char id[32];
    std::snprintf(id, sizeof id, "AS%04zu", i);
    const int paper_event = static_cast<int>(i % 6) + 1;
    events.push_back(build_one(fs, root, id, paper_event,
                               event_seed(seed, 100 + i), 0.1, true));
  }
  return events;
}

}  // namespace perfbench
