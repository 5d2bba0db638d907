// The benchmark driver: runs one workload and prints one JSON line
// with the correctness verdict, the failure counts and the metrics.
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--disk-root DIR]
// A traced run needs --disk-root: the directory it puts the pipeline's
// files in, emptied before and after.
// run.py builds this binary and turns its line into the benchmark
// result.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload triaxial-event|uniaxial-archive|"
               "aftershock-serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--disk-root DIR]\n");
  return 2;
}

acx::Json number_or_null(double v) {
  return std::isfinite(v) ? acx::Json(v) : acx::Json();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  opts.threads = std::min(4, hw);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opts.trace = std::string(v) == "1";
    } else if (arg == "--trace-out") {
      opts.trace_out = v;
    } else if (arg == "--disk-root") {
      opts.disk_root = v;
    } else {
      return usage();
    }
  }
  if (!perfbench::known_workload(opts.workload) || !(opts.seconds > 0) ||
      (opts.trace && opts.disk_root.empty())) {
    return usage();
  }

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  acx::Json metrics = acx::Json::object();
  for (const perfbench::Metric& m : out.metrics) {
    acx::Json jm = acx::Json::object();
    jm.set("value", number_or_null(m.value));
    jm.set("unit", m.unit);
    jm.set("samples", m.samples);
    if (m.dist.n > 0) {
      acx::Json dist = acx::Json::object();
      dist.set("median", number_or_null(m.dist.median));
      if (m.dist.tail_q > 0) {
        dist.set("tail_q", m.dist.tail_q);
        dist.set("tail", number_or_null(m.dist.tail));
      }
      jm.set("per_event", std::move(dist));
    }
    metrics.set(m.name, std::move(jm));
  }
  acx::Json errors = acx::Json::array();
  for (const std::string& e : out.gate.errors) errors.push(acx::Json(e));

  acx::Json meta = acx::Json::object();
  meta.set("build_type", PERFBENCH_BUILD_TYPE);
  meta.set("acx_simd_default", acx::simd::compiled_default());
  meta.set("acx_simd_kernels", acx::simd::active_kernels());
  meta.set("nproc", hw);
  meta.set("threads", opts.threads);

  acx::Json root = acx::Json::object();
  root.set("correct", out.gate.ok());
  root.set("attempted", static_cast<double>(out.attempted));
  root.set("failed", static_cast<double>(out.failed));
  root.set("errors", std::move(errors));
  root.set("meta", std::move(meta));
  root.set("metrics", std::move(metrics));
  std::printf("%s\n", root.dump().c_str());
  return 0;
}
