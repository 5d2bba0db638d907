#pragma once
// The storage the untraced runs put the pipeline on: a FileSystem with
// the semantics of RealFileSystem that the pipeline relies on (writes
// need an existing parent directory, rename replaces its target and
// reports a vanished source as kNotFound, listings are sorted and hold
// regular files only), whose names live in a map and whose bytes live
// in one anonymous memory file (memfd_create).
//
// Why not the checkout's disk: on a disk shared with other tenants the
// kernel's file-system time per run varied 2.7x between consecutive
// runs of aftershock-serve (4.5 s to 12 s of system time), which moved
// its event and latency medians by 30-45 % from run to run; here the
// system time is 0.3 s and the runs agree within about 10 %. The price:
// RealFileSystem and the kernel's path, directory and rename work are
// not in the end-to-end figures. The traced run measures them (it runs
// on RealFileSystem, see workloads.hpp).
//
// Why a memory file and not the heap: file bytes are read and written
// with pread/pwrite, a copy through the kernel as with a real file, and
// they are shared-memory pages of the memory file, not pages of the
// process, so peak_rss_mb counts the program's memory and not the
// inputs and outputs kept here.

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/fs.hpp"

namespace perfbench {

class MemFileSystem final : public acx::FileSystem {
 public:
  MemFileSystem();  // throws std::runtime_error without memfd_create
  ~MemFileSystem() override;
  MemFileSystem(const MemFileSystem&) = delete;
  MemFileSystem& operator=(const MemFileSystem&) = delete;

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

 private:
  // A file's bytes: a page-aligned range of the memory file, whose pages
  // are released when the last reference goes. Shared so that reads
  // copy the bytes outside the lock.
  struct Extent {
    Extent(int fd_in, off_t offset_in, std::size_t size_in)
        : fd(fd_in), offset(offset_in), size(size_in) {}
    Extent(const Extent&) = delete;
    Extent& operator=(const Extent&) = delete;
    ~Extent();
    int fd;
    off_t offset;
    std::size_t size;
  };
  using Bytes = std::shared_ptr<const Extent>;

  std::vector<std::filesystem::path> list(const std::string& dir, bool recursive);

  int fd_;
  std::mutex mu_;
  off_t end_ = 0;                       // next free offset of the memory file
  std::map<std::string, Bytes> files_;  // normalized path -> bytes
  std::set<std::string> dirs_;          // normalized paths
};

}  // namespace perfbench
