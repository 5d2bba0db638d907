#include "memfs.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace stdfs = std::filesystem;
using acx::IoError;

namespace {

std::string key(const stdfs::path& p) {
  std::string k = p.lexically_normal().string();
  while (k.size() > 1 && k.back() == '/') k.pop_back();
  return k;
}

std::string parent_key(const std::string& k) {
  return key(stdfs::path(k).parent_path());
}

IoError error(IoError::Code code, acx::ErrorClass klass, const stdfs::path& p,
              std::string detail) {
  return IoError{code, klass, p.string(), std::move(detail)};
}

constexpr off_t kPage = 4096;

}  // namespace

MemFileSystem::MemFileSystem() : fd_(memfd_create("perfbench-files", MFD_CLOEXEC)) {
  if (fd_ < 0) {
    throw std::runtime_error(std::string("memfd_create: ") + std::strerror(errno));
  }
}

MemFileSystem::~MemFileSystem() {
  files_.clear();  // the extents release their pages through fd_
  ::close(fd_);
}

MemFileSystem::Extent::~Extent() {
  if (size > 0) {
    const off_t pages = (static_cast<off_t>(size) + kPage - 1) / kPage * kPage;
    (void)fallocate(fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, offset, pages);
  }
}

acx::Result<std::string, IoError> MemFileSystem::read_file(const stdfs::path& path) {
  Bytes bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(key(path));
    if (it != files_.end()) bytes = it->second;
  }
  if (!bytes) {
    return error(IoError::Code::kNotFound, acx::ErrorClass::kPoison, path,
                 "no such file");
  }
  // The copy is made outside the lock.
  std::string content(bytes->size, '\0');
  for (std::size_t done = 0; done < content.size();) {
    const ssize_t n = pread(bytes->fd, content.data() + done, content.size() - done,
                            bytes->offset + static_cast<off_t>(done));
    if (n <= 0) {
      return error(IoError::Code::kReadFailed, acx::ErrorClass::kTransient, path,
                   n < 0 ? std::strerror(errno) : "short read");
    }
    done += static_cast<std::size_t>(n);
  }
  return content;
}

acx::Result<acx::Unit, IoError> MemFileSystem::write_file(const stdfs::path& path,
                                                          std::string_view content) {
  const std::string k = key(path);
  off_t offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dirs_.count(parent_key(k)) || dirs_.count(k)) {
      return error(IoError::Code::kOpenFailed, acx::ErrorClass::kTransient, path,
                   "no such directory");
    }
    offset = end_;
    end_ += (static_cast<off_t>(content.size()) + kPage - 1) / kPage * kPage;
  }
  auto bytes = std::make_shared<const Extent>(fd_, offset, content.size());
  for (std::size_t done = 0; done < content.size();) {
    const ssize_t n = pwrite(fd_, content.data() + done, content.size() - done,
                             offset + static_cast<off_t>(done));
    if (n <= 0) {
      return error(IoError::Code::kWriteFailed, acx::ErrorClass::kTransient, path,
                   n < 0 ? std::strerror(errno) : "short write");
    }
    done += static_cast<std::size_t>(n);
  }
  Bytes replaced;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  replaced = std::exchange(files_[k], std::move(bytes));
  return acx::Unit{};
}

acx::Result<acx::Unit, IoError> MemFileSystem::rename(const stdfs::path& from,
                                                      const stdfs::path& to) {
  const std::string src = key(from);
  const std::string dst = key(to);
  Bytes replaced;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(src);
  if (it == files_.end()) {
    return error(IoError::Code::kNotFound, acx::ErrorClass::kPoison, from,
                 "no such file -> " + to.string());
  }
  if (!dirs_.count(parent_key(dst)) || dirs_.count(dst)) {
    return error(IoError::Code::kRenameFailed, acx::ErrorClass::kTransient, from,
                 "no such directory -> " + to.string());
  }
  if (src == dst) return acx::Unit{};
  Bytes bytes = std::move(it->second);
  files_.erase(it);
  replaced = std::exchange(files_[dst], std::move(bytes));
  return acx::Unit{};
}

acx::Result<acx::Unit, IoError> MemFileSystem::create_directories(
    const stdfs::path& path) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::string k = key(path);; k = parent_key(k)) {
    if (files_.count(k)) {
      return error(IoError::Code::kCreateDirFailed, acx::ErrorClass::kTransient,
                   path, "a file is in the way");
    }
    if (!dirs_.insert(k).second || k == "/" || k == "." || k.empty()) break;
  }
  return acx::Unit{};
}

std::vector<stdfs::path> MemFileSystem::list(const std::string& dir,
                                             bool recursive) {
  const std::string prefix = dir == "/" ? dir : dir + "/";
  std::vector<stdfs::path> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (recursive || it->first.find('/', prefix.size()) == std::string::npos) {
      out.emplace_back(it->first);
    }
  }
  return out;  // map order is path order
}

acx::Result<std::vector<stdfs::path>, IoError> MemFileSystem::list_dir(
    const stdfs::path& dir) {
  const std::string k = key(dir);
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.count(k)) {
    return error(IoError::Code::kListFailed, acx::ErrorClass::kTransient, dir,
                 "no such directory");
  }
  return list(k, false);
}

acx::Result<std::vector<stdfs::path>, IoError> MemFileSystem::list_tree(
    const stdfs::path& dir) {
  const std::string k = key(dir);
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.count(k)) {
    return error(IoError::Code::kListFailed, acx::ErrorClass::kTransient, dir,
                 "no such directory");
  }
  return list(k, true);
}

acx::Result<acx::Unit, IoError> MemFileSystem::remove_all(const stdfs::path& path) {
  const std::string k = key(path);
  const std::string prefix = k + "/";
  std::map<std::string, Bytes> removed;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto first = files_.lower_bound(prefix);
  auto last = files_.lower_bound(k + "0");
  if (auto it = files_.find(k); it != files_.end()) removed.insert(files_.extract(it));
  while (first != last) removed.insert(files_.extract(first++));
  dirs_.erase(k);
  dirs_.erase(dirs_.lower_bound(prefix), dirs_.lower_bound(k + "0"));
  return acx::Unit{};
}

bool MemFileSystem::exists(const stdfs::path& path) {
  const std::string k = key(path);
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(k) > 0 || dirs_.count(k) > 0;
}

std::uintmax_t MemFileSystem::file_size(const stdfs::path& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(key(path));
  return it == files_.end() ? 0 : it->second->size;
}

}  // namespace perfbench
