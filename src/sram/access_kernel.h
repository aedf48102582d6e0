// Access-kernel selection, shared by the memory model and the public API.
//
// Kept in its own header so core/spec.h can name the enum without pulling
// the whole behavioral memory model into every API translation unit.
#pragma once

#include <optional>
#include <string_view>

namespace fastdiag::sram {

/// Which access hot path the simulation uses.
///
///  * word_parallel (the default) routes single-row, unrepaired-column
///    accesses through the word-level FaultBehavior hooks — packed limb
///    copies whenever the row carries no defect.
///  * per_cell forces the bit-at-a-time reference loop on every access.
///  * instance_sliced additionally groups identical-geometry transparent
///    memories into bit-sliced sram::InstanceSlab lanes (bit k of each limb
///    = memory k's cell), so one March op advances up to 64 memories per
///    word operation.  Slicing is a group-level decision: schemes acting on
///    a whole SoC (bisd::SocUnderTest::slice_groups) consume it; a lone
///    memory treats instance_sliced exactly like word_parallel.  Memories that cannot slice (faulty, repaired,
///    no idle mode, odd geometry) fall back to the word_parallel path —
///    exact per-cell fault semantics are preserved either way.
///
/// Sliceability for *diagnosis* lanes is all-or-nothing (Sram::sliceable():
/// transparent behaviour, no spares consumed).  The dictionary-build probe
/// slabs relax that per cell-column instead: InstanceSlab's exactness
/// bitmaps mark the individual (lane, cell) slots owned by fault-candidate
/// records, which are preserved through the broadcast write (write-exact)
/// or skipped by the packed compare (read-exact), while every clean slot
/// stays on the uniform broadcast path.
///
/// All three produce bit-identical results — the narrower kernels exist so
/// differential tests and benchmarks can prove it.
enum class AccessKernel { word_parallel, per_cell, instance_sliced };

/// "word_parallel" / "per_cell" / "instance_sliced".
[[nodiscard]] constexpr const char* access_kernel_name(AccessKernel kernel) {
  switch (kernel) {
    case AccessKernel::word_parallel:
      return "word_parallel";
    case AccessKernel::per_cell:
      return "per_cell";
    case AccessKernel::instance_sliced:
      return "instance_sliced";
  }
  return "word_parallel";
}

/// Parses an access_kernel_name() string; nullopt for anything else.
[[nodiscard]] constexpr std::optional<AccessKernel> parse_access_kernel(
    std::string_view name) {
  if (name == "word_parallel") {
    return AccessKernel::word_parallel;
  }
  if (name == "per_cell") {
    return AccessKernel::per_cell;
  }
  if (name == "instance_sliced") {
    return AccessKernel::instance_sliced;
  }
  return std::nullopt;
}

}  // namespace fastdiag::sram
