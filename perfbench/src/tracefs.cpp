#include "tracefs.hpp"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

thread_local std::string t_request;
thread_local long long t_parent = 0;

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

long long next_span_id() {
  static std::atomic<long long> next{1};
  return next.fetch_add(1);
}

void ObservedFileSystem::set_context(std::string request, long long parent) {
  t_request = std::move(request);
  t_parent = parent;
}

void ObservedFileSystem::record(const char* name, double start,
                                long long bytes, bool ok) {
  if (!trace_) return;
  Span s;
  s.name = name;
  s.cat = "storage";
  s.start = start;
  s.end = now_s();
  s.request = t_request;
  s.bytes = bytes;
  s.failed = !ok;
  s.tid = thread_index();
  s.id = next_span_id();
  s.parent = t_parent;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

acx::Result<std::string, acx::IoError> ObservedFileSystem::read_file(
    const std::filesystem::path& path) {
  const double t0 = now_s();
  auto r = inner_.read_file(path);
  record("storage.read", t0, r.ok() ? static_cast<long long>(r.value().size()) : 0,
         r.ok());
  return r;
}

acx::Result<acx::Unit, acx::IoError> ObservedFileSystem::write_file(
    const std::filesystem::path& path, std::string_view content) {
  const double t0 = now_s();
  auto r = inner_.write_file(path, content);
  record("storage.write", t0, static_cast<long long>(content.size()), r.ok());
  return r;
}

acx::Result<acx::Unit, acx::IoError> ObservedFileSystem::rename(
    const std::filesystem::path& from, const std::filesystem::path& to) {
  const double t0 = now_s();
  auto r = inner_.rename(from, to);
  const double t1 = now_s();
  record("storage.rename", t0, 0, r.ok());
  if (r.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    publishes_.push_back({t1, to});
  }
  return r;
}

acx::Result<acx::Unit, acx::IoError> ObservedFileSystem::create_directories(
    const std::filesystem::path& path) {
  return inner_.create_directories(path);
}

acx::Result<std::vector<std::filesystem::path>, acx::IoError>
ObservedFileSystem::list_dir(const std::filesystem::path& dir) {
  const double t0 = now_s();
  auto r = inner_.list_dir(dir);
  record("storage.list", t0, 0, r.ok());
  return r;
}

acx::Result<std::vector<std::filesystem::path>, acx::IoError>
ObservedFileSystem::list_tree(const std::filesystem::path& dir) {
  const double t0 = now_s();
  auto r = inner_.list_tree(dir);
  record("storage.list", t0, 0, r.ok());
  return r;
}

acx::Result<acx::Unit, acx::IoError> ObservedFileSystem::remove_all(
    const std::filesystem::path& path) {
  return inner_.remove_all(path);
}

bool ObservedFileSystem::exists(const std::filesystem::path& path) {
  return inner_.exists(path);
}

std::uintmax_t ObservedFileSystem::file_size(const std::filesystem::path& path) {
  return inner_.file_size(path);
}

std::vector<Span> ObservedFileSystem::take_spans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

std::vector<Publish> ObservedFileSystem::take_publishes() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(publishes_, {});
}

}  // namespace perfbench
