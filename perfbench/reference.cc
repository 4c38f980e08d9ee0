#include "perfbench/reference.h"

#include <cstdlib>
#include <cstring>

#include "perfbench/trace.h"

namespace perfbench {
namespace {

constexpr uint64_t kPages = 24576;  // 96 MiB of 4 KiB pages
constexpr int kIterations = 20000;
constexpr size_t kMaxEntries = 8192;

// Shared, read-only after construction; built on first use (thread-safe).
const std::vector<uint8_t>& Buffer() {
  static const std::vector<uint8_t> buffer(kPages * 4096, 0x5A);
  return buffer;
}

}  // namespace

ReferenceKernel::ReferenceKernel(uint64_t seed) : state_(seed) {
  Run();  // fill the hash table to its steady size before the first sample
}

ReferenceKernel::~ReferenceKernel() {
  for (auto& [page, block] : table_) {
    std::free(block);
  }
}

double ReferenceKernel::Run() {
  const std::vector<uint8_t>& buffer = Buffer();
  uint64_t sink = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < kIterations; ++i) {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 31;
    const uint64_t page = z % kPages;
    std::memcpy(page_.data(), buffer.data() + page * 4096, 4096);
    sink += page_[z & 4095];
    if (auto it = table_.find(page); it != table_.end()) {
      std::free(it->second);
      table_.erase(it);
    } else if (table_.size() < kMaxEntries) {
      table_.emplace(page, std::malloc(4096));
    }
  }
  const int64_t duration = NowNs() - start;
  asm volatile("" : : "r"(sink));
  return static_cast<double>(duration) / kIterations;
}

}  // namespace perfbench
