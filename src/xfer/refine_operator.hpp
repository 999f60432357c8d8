// RefineOperator: interpolates data from a coarse patch into the finer
// index space (SAMRAI's RefineOperator strategy; paper §IV-B2). The
// implementations in src/geom are fully data-parallel device kernels —
// one thread per fine element — which the paper presents as the first of
// their kind.
#pragma once

#include <span>

#include "mesh/box.hpp"
#include "pdat/patch_data.hpp"

namespace ramr::xfer {

/// One application of a refine operator inside a fused batch.
struct RefineTask {
  pdat::PatchData* dst = nullptr;
  const pdat::PatchData* src = nullptr;
  mesh::Box fine_cells;
};

/// Strategy interface for coarse-to-fine interpolation.
class RefineOperator {
 public:
  virtual ~RefineOperator() = default;

  /// Coarse cells needed around the coarsened fine region.
  virtual mesh::IntVector stencil_width() const = 0;

  /// Fills each task's `dst` over its `fine_cells` (fine cell space,
  /// clipped internally to both arrays) by interpolating its `src`, whose
  /// index space is coarser by `ratio` — ONE fused launch per component
  /// over all tasks. Task write regions must be disjoint, which schedule
  /// plans guarantee.
  virtual void refine_batched(std::span<const RefineTask> tasks,
                              const mesh::IntVector& ratio) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace ramr::xfer
