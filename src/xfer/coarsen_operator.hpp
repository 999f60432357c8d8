// CoarsenOperator: restricts fine data onto the next coarser index space
// (SAMRAI's CoarsenOperator strategy; paper §IV-B2 and §IV-C). The
// volume- and mass-weighted implementations in src/geom ensure the
// hydrodynamic quantities remain conserved when fine patches overwrite
// the coarse solution.
#pragma once

#include <span>

#include "mesh/box.hpp"
#include "pdat/patch_data.hpp"

namespace ramr::xfer {

/// One application of a coarsen operator inside a fused batch.
struct CoarsenTask {
  pdat::PatchData* dst = nullptr;
  const pdat::PatchData* src = nullptr;
  const pdat::PatchData* src_aux = nullptr;
  mesh::Box coarse_cells;
};

/// Strategy interface for fine-to-coarse restriction.
class CoarsenOperator {
 public:
  virtual ~CoarsenOperator() = default;

  /// Fills each task's `dst` over its `coarse_cells` (coarse cell space)
  /// from its `src`, whose index space is finer by `ratio` — ONE fused
  /// launch per component over all tasks. `src_aux` supplies an
  /// auxiliary fine field when needs_aux() is true (the fine density for
  /// mass weighting). Task destinations must not alias, which the
  /// schedule's per-transaction scratch guarantees.
  virtual void coarsen_batched(std::span<const CoarsenTask> tasks,
                               const mesh::IntVector& ratio) const = 0;

  /// True when the operator requires an auxiliary source field.
  virtual bool needs_aux() const { return false; }

  virtual const char* name() const = 0;
};

}  // namespace ramr::xfer
