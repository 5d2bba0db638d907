#pragma once
// The three benchmark workloads (README.md, "Workloads") and the
// metrics each run reports.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.hpp"
#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;  // triaxial-event | uniaxial-archive | aftershock-serve
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  // Root of the inputs and work dirs: on the in-memory file system
  // (memfs.hpp) when untraced, on the disk (RealFileSystem) when traced,
  // so that the storage layer's figures are those of the real one.
  std::filesystem::path root = "/perfbench";
  std::filesystem::path disk_root;  // required when traced
  std::filesystem::path trace_out;  // Chrome trace file of a traced run
  int threads = 4;  // min(4, nproc)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 1;
  Summary dist;  // pooled per-event distribution; dist.n == 0 when none
};

struct Outcome {
  Gate gate;
  long long attempted = 0;  // events offered to the program
  long long failed = 0;     // events with a failure (see README.md)
  std::vector<Metric> metrics;
};

bool known_workload(const std::string& name);

// Untraced: set up three times, then measure for opts.seconds and
// report the end-to-end metrics. Traced: set up once, run one untraced
// and one traced pass, replay the records stage by stage, and report
// the per-layer metrics; opts.disk_root is emptied before and after.
Outcome run_workload(const Options& opts);

}  // namespace perfbench
