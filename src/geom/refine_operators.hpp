// The paper's data-parallel refinement operators (§IV-B2, Fig. 5):
//   * NodeLinearRefine — bilinear interpolation of node-centred data
//     (velocities), one device thread per fine node;
//   * CellConservativeLinearRefine — MC-limited piecewise-linear
//     reconstruction of cell-centred data (density, energy), exactly
//     conservative under summation over each coarse cell;
//   * SideConservativeLinearRefine — linear along the face normal,
//     constant tangentially, for side-centred data (fluxes).
#pragma once

#include "xfer/refine_operator.hpp"

namespace ramr::geom {

/// Bilinear node-centred refine (paper Fig. 5b). Fine nodes coincident
/// with coarse nodes copy them exactly; interior fine nodes blend the
/// four surrounding coarse nodes with weights (1-x)(1-y) etc.
class NodeLinearRefine : public xfer::RefineOperator {
 public:
  mesh::IntVector stencil_width() const override { return {0, 0}; }
  void refine_batched(std::span<const xfer::RefineTask> tasks,
                      const mesh::IntVector& ratio) const override;
  const char* name() const override { return "node-linear-refine"; }
};

/// Conservative MC-limited linear refine for cell-centred data.
class CellConservativeLinearRefine : public xfer::RefineOperator {
 public:
  mesh::IntVector stencil_width() const override { return {1, 1}; }
  void refine_batched(std::span<const xfer::RefineTask> tasks,
                      const mesh::IntVector& ratio) const override;
  const char* name() const override { return "cell-conservative-linear-refine"; }
};

/// Side-centred refine: linear interpolation between the two adjacent
/// coarse faces along the normal; constant in the tangential direction.
class SideConservativeLinearRefine : public xfer::RefineOperator {
 public:
  mesh::IntVector stencil_width() const override { return {0, 0}; }
  void refine_batched(std::span<const xfer::RefineTask> tasks,
                      const mesh::IntVector& ratio) const override;
  const char* name() const override { return "side-conservative-linear-refine"; }
};

}  // namespace ramr::geom
