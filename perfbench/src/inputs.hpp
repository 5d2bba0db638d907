#pragma once
// Input builders of the three workloads. Every input is a V1 event
// directory written by the synthetic generator (src/synth) from the
// benchmark seed; the program under test sees nothing else.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/fs.hpp"

namespace perfbench {

struct EventInput {
  std::string id;             // event id = input directory name
  std::filesystem::path dir;
};

// Paper event 3 at scale 1: three triaxial stations (l, t, v), nine
// records, ~145 K points.
std::vector<EventInput> build_triaxial(acx::FileSystem& fs,
                                       const std::filesystem::path& root,
                                       std::uint64_t seed);

// The six paper events at scale 1 (71 records, ~1.37 M points), each
// record made a station of its own (station SS01 component l becomes
// station SS01L component l, file SS01Ll.v1), so every station lacks
// its horizontal pair and the RotD stage is skipped.
std::vector<EventInput> build_uniaxial_archive(acx::FileSystem& fs,
                                               const std::filesystem::path& root,
                                               std::uint64_t seed);

// `n` uniaxial events cycling through paper events 1..6 at scale 0.1,
// each with a seed of its own.
std::vector<EventInput> build_aftershocks(acx::FileSystem& fs,
                                          const std::filesystem::path& root,
                                          std::uint64_t seed, std::size_t n);

}  // namespace perfbench
