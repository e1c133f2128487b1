#pragma once
// Runtime selection of the active kernel tables: SAD (sad_kernels.hpp) and
// the 8×8 transforms (transform_kernels.hpp), always switched together.
//
// Variant availability is decided twice: at BUILD time a CMake feature probe
// compiles src/simd/{sad,transform}_{sse2,avx2}.cpp with the matching -m flags
// (skipped entirely under -DACBM_DISABLE_SIMD=ON or on non-x86 targets), and
// at RUN time CPUID gates which compiled variants may execute. The process
// starts on the best variant that passes both gates ("auto"); the --kernel
// CLI flag on acbm_enc / the benches, or select_kernels() from code, pins a
// specific one for A/B measurement.
//
// Selection is process-global: each table is consulted through one atomic
// pointer on every me::sad_block / codec transform call. Swapping variants
// mid-encode is safe (all variants are bit-identical) but pointless; the
// intended protocol is select once at startup. Thread-pool workers read the
// same tables, so a parallel encode uses one variant throughout.

#include <string>
#include <string_view>
#include <vector>

#include "simd/sad_kernels.hpp"
#include "simd/transform_kernels.hpp"

namespace acbm::simd {

/// The selectable kernel variants. kAuto resolves to the best variant that
/// is both compiled in and supported by the executing CPU.
enum class KernelIsa { kScalar, kSse2, kAvx2, kAuto };

/// @brief Table for a specific variant, or nullptr when it is unavailable
/// (compiled out by the feature probe / ACBM_DISABLE_SIMD, or the CPU lacks
/// the ISA). kScalar always succeeds; kAuto returns the best available.
/// Useful for benchmarking variants side by side without touching the
/// global selection.
[[nodiscard]] const SadKernels* kernels_for(KernelIsa isa);

/// @brief The table all me:: SAD entry points currently route through.
/// Defaults to kAuto's choice on first use.
[[nodiscard]] const SadKernels& active_kernels();

/// @brief Transform table for a variant, with the same availability rules as
/// kernels_for().
[[nodiscard]] const TransformKernels* transforms_for(KernelIsa isa);

/// @brief The transform table the codec's DCT/quantiser entry points route
/// through; select_kernels() sets it together with active_kernels().
[[nodiscard]] const TransformKernels& active_transforms();

/// @brief Makes `isa` the active SAD and transform table. Returns false
/// (selection unchanged) when the variant is unavailable on this build/CPU.
bool select_kernels(KernelIsa isa);

/// @brief select_kernels() keyed by the CLI spelling: "scalar", "sse2",
/// "avx2" or "auto". Unknown names return false.
bool select_kernels_by_name(std::string_view name);

/// @brief Parses a CLI kernel spelling into its KernelIsa without touching
/// the active selection or checking availability. Lets callers distinguish
/// "not a kernel name" (reject with the valid spellings) from "a real
/// variant this build/CPU cannot honour" (reject with
/// available_kernel_names()) instead of collapsing both into one failure.
/// @return true and sets `isa` for the four valid spellings; false otherwise.
bool parse_kernel_name(std::string_view name, KernelIsa& isa);

/// @brief Name of the active table ("scalar", "sse2", "avx2").
[[nodiscard]] std::string_view active_kernel_name();

/// @brief CLI spellings accepted by select_kernels_by_name() on this
/// build/CPU, in preference order ending with "auto" — ready for usage
/// strings and validation messages.
[[nodiscard]] std::vector<std::string> available_kernel_names();

}  // namespace acbm::simd
