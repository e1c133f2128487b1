#include "simd/dispatch.hpp"

#include <atomic>

namespace acbm::simd {
namespace {

// CPUID gates. __builtin_cpu_supports (GCC/Clang) checks OS state too
// (OSXSAVE/XCR0 for AVX2), so a kernel is only offered where it may legally
// execute. Non-GNU compilers conservatively report "unsupported" and run the
// scalar table.
bool cpu_supports_sse2() {
#if defined(__x86_64__)
  return true;  // architectural baseline
#elif defined(__i386__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// The best variant that is compiled in and runs on this CPU. The SAD and
/// transform TUs of one ISA share the same build and CPUID gates.
KernelIsa best_isa() {
  for (KernelIsa isa : {KernelIsa::kAvx2, KernelIsa::kSse2}) {
    if (kernels_for(isa) != nullptr && transforms_for(isa) != nullptr) {
      return isa;
    }
  }
  return KernelIsa::kScalar;
}

// Function-local statics: thread-safe lazy init, immune to cross-TU static
// initialization order (me::sad_block may run during another TU's dynamic
// initialization).
std::atomic<const SadKernels*>& active_slot() {
  static std::atomic<const SadKernels*> slot{kernels_for(best_isa())};
  return slot;
}

std::atomic<const TransformKernels*>& active_transform_slot() {
  static std::atomic<const TransformKernels*> slot{transforms_for(best_isa())};
  return slot;
}

}  // namespace

const SadKernels* kernels_for(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return detail::scalar_kernels();
    case KernelIsa::kSse2:
      return cpu_supports_sse2() ? detail::sse2_kernels() : nullptr;
    case KernelIsa::kAvx2:
      return cpu_supports_avx2() ? detail::avx2_kernels() : nullptr;
    case KernelIsa::kAuto:
      return kernels_for(best_isa());
  }
  return nullptr;
}

const TransformKernels* transforms_for(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return detail::scalar_transforms();
    case KernelIsa::kSse2:
      return cpu_supports_sse2() ? detail::sse2_transforms() : nullptr;
    case KernelIsa::kAvx2:
      return cpu_supports_avx2() ? detail::avx2_transforms() : nullptr;
    case KernelIsa::kAuto:
      return transforms_for(best_isa());
  }
  return nullptr;
}

const SadKernels& active_kernels() {
  return *active_slot().load(std::memory_order_acquire);
}

const TransformKernels& active_transforms() {
  return *active_transform_slot().load(std::memory_order_acquire);
}

bool select_kernels(KernelIsa isa) {
  const SadKernels* table = kernels_for(isa);
  const TransformKernels* transforms = transforms_for(isa);
  if (table == nullptr || transforms == nullptr) {
    return false;
  }
  active_slot().store(table, std::memory_order_release);
  active_transform_slot().store(transforms, std::memory_order_release);
  return true;
}

bool select_kernels_by_name(std::string_view name) {
  KernelIsa isa;
  return parse_kernel_name(name, isa) && select_kernels(isa);
}

bool parse_kernel_name(std::string_view name, KernelIsa& isa) {
  if (name == "scalar") {
    isa = KernelIsa::kScalar;
    return true;
  }
  if (name == "sse2") {
    isa = KernelIsa::kSse2;
    return true;
  }
  if (name == "avx2") {
    isa = KernelIsa::kAvx2;
    return true;
  }
  if (name == "auto") {
    isa = KernelIsa::kAuto;
    return true;
  }
  return false;
}

std::string_view active_kernel_name() { return active_kernels().name; }

std::vector<std::string> available_kernel_names() {
  std::vector<std::string> names;
  for (KernelIsa isa :
       {KernelIsa::kAvx2, KernelIsa::kSse2, KernelIsa::kScalar}) {
    if (const SadKernels* t = kernels_for(isa)) {
      names.emplace_back(t->name);
    }
  }
  names.emplace_back("auto");
  return names;
}

}  // namespace acbm::simd
