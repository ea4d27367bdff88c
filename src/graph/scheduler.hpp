// Vector execution scheduler (paper Sec. III-B, Fig. 4): shape inferer +
// hardware detector + code generator.
//
// The shape inferer lives in shape_infer.hpp and the hardware detector in
// simd/cpu_features.hpp; this header is the code generator.  It has two
// rules, one per vectorization axis.
//
// The register-tile rule (default_kernel_plan) governs every binary conv and
// fc layer — the engine's and ops::'s alike.  Their kernels vectorize along
// K: one activation word is broadcast against T interleaved filter words,
// so every lane holds a filter and no channel count wastes one.  A layer
// therefore takes the widest ISA the CPU supports, and T follows from the
// ISA: 16 on AVX2/AVX-512, 4 on u64/SSE.  A K that fills no whole number of
// tiles is padded with zero filters, as rule 4 below pads C.
//
// The paper's channel rule (select_isa, Fig. 6) governs the kernels that
// still vectorize along C — binary max pooling — and the Fig. 6 mapping
// report.  A C that is not a multiple of the register width would waste
// lanes there:
//   rule 1: C % 512 == 0 and AVX-512 available  -> 512-bit kernel
//   rule 2: C % 256 == 0 and AVX2 available     -> 256-bit kernel
//   rule 3: C % 128 == 0 and SSE available      -> 128-bit kernel
//   rule 4: otherwise -> scalar word kernel; channel counts that are not a
//           multiple of the word size are padded with zero bits (the packers
//           maintain zero tails, so no separate padding pass exists).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "simd/cpu_features.hpp"
#include "simd/isa.hpp"

namespace bitflow::graph {

/// The paper's channel rule: the ISA level for an operator whose packed
/// dimension (channels for conv/pool, input neurons for FC) is `channels`,
/// on hardware `f`.
[[nodiscard]] simd::IsaLevel select_isa(std::int64_t channels, const simd::CpuFeatures& f);

/// Human-readable justification of a selection ("C=256 is a multiple of 256
/// -> avx2 (rule 2)"), used by the Fig. 6 mapping report.
[[nodiscard]] std::string explain_isa_selection(std::int64_t channels,
                                                const simd::CpuFeatures& f);

/// The ISA a conv or fc layer runs at.  The register-tile width T and the
/// register-block height P follow from it at compile time
/// (kernels::weight_tile_width, kernels::pixel_block), so they are not
/// fields.
struct KernelPlan {
  simd::IsaLevel isa = simd::IsaLevel::kU64;
};

/// The plan of every conv and fc layer: the one rule behind weight lowering
/// (graph/weights.hpp), finalize() and ops::.  The ISA is the widest `f`
/// supports, clamped by `cap` (NetworkConfig::max_isa, ops' force_isa, or
/// kU64 under a forced fallback).  Nothing is measured at run time;
/// DESIGN.md ("No auto-tuner") records why.
[[nodiscard]] KernelPlan default_kernel_plan(const simd::CpuFeatures& f,
                                             std::optional<simd::IsaLevel> cap = std::nullopt);

/// LayerInfo::isa_reason for a plan from default_kernel_plan, for a layer of
/// `k` filters or output neurons: its ISA, T, P, and how K fills the tiles.
[[nodiscard]] std::string explain_kernel_plan(const KernelPlan& plan, std::int64_t k);

}  // namespace bitflow::graph
