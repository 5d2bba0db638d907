#pragma once
// The benchmark's view into the storage layer: a FileSystem decorator
// the workloads put between the pipeline and its storage.
//  - Always: records every rename's landing time and destination (the
//    publish timeline; a run_report.json rename is when an event's
//    result became visible). One lock and one push per rename.
//  - Traced: additionally records one span per read/write/rename/list
//    call, with bytes moved and whether it failed, attributed to the
//    calling thread's current request and parent span (set_context).

#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "util/fs.hpp"

namespace perfbench {

// Steady clock in seconds since the first call in this process.
double now_s();

struct Span {
  std::string name;     // "storage.read", "stage.response", ...
  std::string cat;      // "storage" | "stage" | "station"
  double start = 0;
  double end = 0;
  std::string request;  // record, station or event id
  long long bytes = 0;
  bool failed = false;
  int tid = 0;
  long long id = 0;
  long long parent = 0;  // 0 = a root span
};

// The calling thread's small integer id (stable for the thread's life).
int thread_index();
// Process-unique span ids, starting at 1.
long long next_span_id();

struct Publish {
  double t = 0;
  std::filesystem::path path;  // rename destination
};

class ObservedFileSystem final : public acx::FileSystem {
 public:
  ObservedFileSystem(acx::FileSystem& inner, bool trace)
      : inner_(inner), trace_(trace) {}

  // Attribution of the storage spans this thread records next.
  static void set_context(std::string request, long long parent);

  acx::Result<std::string, acx::IoError> read_file(
      const std::filesystem::path& path) override;
  acx::Result<acx::Unit, acx::IoError> write_file(
      const std::filesystem::path& path, std::string_view content) override;
  acx::Result<acx::Unit, acx::IoError> rename(
      const std::filesystem::path& from,
      const std::filesystem::path& to) override;
  acx::Result<acx::Unit, acx::IoError> create_directories(
      const std::filesystem::path& path) override;
  acx::Result<std::vector<std::filesystem::path>, acx::IoError> list_dir(
      const std::filesystem::path& dir) override;
  acx::Result<std::vector<std::filesystem::path>, acx::IoError> list_tree(
      const std::filesystem::path& dir) override;
  acx::Result<acx::Unit, acx::IoError> remove_all(
      const std::filesystem::path& path) override;
  bool exists(const std::filesystem::path& path) override;
  std::uintmax_t file_size(const std::filesystem::path& path) override;

  // Drain what was recorded so far.
  std::vector<Span> take_spans();
  std::vector<Publish> take_publishes();

 private:
  void record(const char* name, double start, long long bytes, bool ok);

  acx::FileSystem& inner_;
  const bool trace_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Publish> publishes_;
};

}  // namespace perfbench
