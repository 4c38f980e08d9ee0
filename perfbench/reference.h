// Reference kernel: a fixed, benchmark-owned task that measures how fast the
// machine is running right now.
//
// On a shared host the same build reads 15-30% faster or slower from one
// minute to the next (other tenants' memory traffic), for the page cache
// and for any other memory-bound code alike. At the start of every
// measurement window the client runs this kernel, and the window's timings
// are rescaled by the kernel's speed:
//
//   factor = reference ns per iteration / kReferenceNs
//   ops_per_s     = raw ops_per_s * factor
//   latencies, cpu_ns_per_op = raw / factor
//
// so a value reads as if the kernel had taken kReferenceNs per iteration.
// The kernel does what a page-cache miss does to memory: copy a random 4 KiB
// page out of a 96 MiB buffer, probe and update a hash table, allocate and
// free. It does not call the library, so no change to the library moves it.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

// Nominal reference speed: about what the kernel takes per iteration on an
// idle 4-vCPU Xeon VM. Only the scale of the rescaled values depends on it.
inline constexpr double kReferenceNs = 700.0;

class ReferenceKernel {
 public:
  // Builds the shared buffer on first use and runs once untimed.
  explicit ReferenceKernel(uint64_t seed);
  ~ReferenceKernel();
  ReferenceKernel(const ReferenceKernel&) = delete;
  ReferenceKernel& operator=(const ReferenceKernel&) = delete;

  // Runs a fixed number of iterations (about 15 ms on the machine above)
  // and returns the time per iteration in ns.
  double Run();

 private:
  uint64_t state_;
  std::unordered_map<uint64_t, void*> table_;
  std::vector<uint8_t> page_ = std::vector<uint8_t>(4096);
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
