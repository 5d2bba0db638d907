#pragma once
// The single-threaded, stage-by-stage replay of a workload's records:
// every node of StageGraph::standard().plan(true) through make_stage,
// then make_station_stage("rotd") for each station with both
// horizontals. One span per (record, stage) with the record id as the
// request id and the stage's storage calls as child spans, so a
// layer's self time is its stage spans minus their storage children.
// Doubles as the single-threaded baseline of the same problem.

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"
#include "tracefs.hpp"

namespace perfbench {

struct ReplayResult {
  std::map<std::string, double> layer_self_s;  // keyed by layer metric prefix
  double response_cells = 0;  // sum over records of n * grid cells
  double rotd_cells = 0;      // sum over stations of n * grid cells * angles
  // Published outputs round-tripped through read_* and re-written;
  // seconds spent in the write_* formatter only.
  double write_f_s = 0;
  double write_r_s = 0;
  double write_rotd_s = 0;
  double wall_s = 0;
  std::vector<Span> spans;  // stage spans and their storage children
};

// Replays `events` (inputs and outputs on `fs`) under `root`; scratch
// and outputs are removed as each event finishes. Stage failures fail
// the gate: the replay runs the same records the workload published.
ReplayResult replay(acx::FileSystem& fs, const std::vector<EventInput>& events,
                    const std::filesystem::path& root, Gate& gate);

}  // namespace perfbench
