#include "os/filesystem.hpp"

#include <algorithm>
#include <stdexcept>

namespace prebake::os {

FileSystem::File& FileSystem::require(const std::string& path) {
  const auto it = files_.find(path);
  if (it == files_.end())
    throw std::invalid_argument{"FileSystem: no such file: " + path};
  return it->second;
}

const FileSystem::File& FileSystem::require(const std::string& path) const {
  const auto it = files_.find(path);
  if (it == files_.end())
    throw std::invalid_argument{"FileSystem: no such file: " + path};
  return it->second;
}

void FileSystem::create(const std::string& path, std::uint64_t size_bytes) {
  files_[path] = File{size_bytes, std::nullopt, false};
}

void FileSystem::write(const std::string& path, std::vector<std::uint8_t> bytes) {
  const auto size = static_cast<std::uint64_t>(bytes.size());
  sim_->advance(costs_->disk_write_cost(size));
  // Freshly written data sits in the page cache.
  files_[path] = File{size, std::move(bytes), true};
}

void FileSystem::append(const std::string& path, const std::uint8_t* data,
                        std::size_t len) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    files_[path] = File{0, std::vector<std::uint8_t>{}, true};
    it = files_.find(path);
  }
  File& f = it->second;
  if (!f.data) f.data.emplace();
  f.data->insert(f.data->end(), data, data + len);
  f.size = f.data->size();
  sim_->advance(costs_->disk_write_cost(len));
}

bool FileSystem::exists(const std::string& path) const {
  return files_.contains(path);
}

std::uint64_t FileSystem::size_of(const std::string& path) const {
  return require(path).size;
}

const std::vector<std::uint8_t>* FileSystem::bytes_of(
    const std::string& path) const {
  const File& f = require(path);
  return f.data ? &*f.data : nullptr;
}

void FileSystem::charge_read(const std::string& path, std::uint64_t bytes,
                             double contention) {
  File& f = require(path);
  if (injector_ != nullptr && injector_->enabled() &&
      path.find(injector_->plan().path_filter) != std::string::npos &&
      injector_->fires(faults::FaultSite::kImageReadError)) {
    // The device errored partway in: the failed attempt still burned a seek.
    sim_->advance(costs_->disk_seek);
    throw IoError{"FileSystem: transient read error: " + path};
  }
  if (bytes == 0 || bytes > f.size) bytes = f.size;
  if (contention < 1.0) contention = 1.0;
  sim::Duration cost = f.cached ? costs_->page_cache_read_cost(bytes)
                                : costs_->disk_read_cost(bytes);
  sim_->advance(cost * contention);
  f.cached = true;
}

void FileSystem::truncate(const std::string& path, std::uint64_t bytes) {
  File& f = require(path);
  if (bytes >= f.size) return;
  f.size = bytes;
  if (f.data && f.data->size() > bytes) f.data->resize(bytes);
}

void FileSystem::remove(const std::string& path) {
  if (files_.erase(path) == 0)
    throw std::invalid_argument{"FileSystem::remove: no such file: " + path};
}

void FileSystem::drop_caches() {
  for (auto& [path, f] : files_) f.cached = false;
}

void FileSystem::warm(const std::string& path) { require(path).cached = true; }

bool FileSystem::is_cached(const std::string& path) const {
  return require(path).cached;
}

std::vector<std::string> FileSystem::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, f] : files_)
    if (path.starts_with(prefix)) out.push_back(path);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace prebake::os
