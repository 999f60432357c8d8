// The paper's data-parallel coarsening operators (§IV-B2, §IV-C,
// Figs. 7-8): each launches one device thread per coarse value; the
// thread reads the r x r fine values covering it and reduces them.
//
//   * NodeInjectionCoarsen — coarse node takes the coincident fine node;
//   * VolumeWeightedCoarsen — c_i = sum_j f_j vol(j) / vol(i) (density);
//   * MassWeightedCoarsen   — c_i = sum_j f_j m_j / sum_j m_j (energy,
//     weighted by the fine density so internal energy stays conserved).
//
// The paper presents the volume-/mass-weighted forms as the first
// data-parallel implementations of these operators.
#pragma once

#include "xfer/coarsen_operator.hpp"

namespace ramr::geom {

/// Injection for node-centred data: coarse node (I,J) <- fine (I*r, J*r).
class NodeInjectionCoarsen : public xfer::CoarsenOperator {
 public:
  void coarsen_batched(std::span<const xfer::CoarsenTask> tasks,
                       const mesh::IntVector& ratio) const override;
  const char* name() const override { return "node-injection-coarsen"; }
};

/// Volume-weighted conservative average for cell-centred data (Fig. 8).
class VolumeWeightedCoarsen : public xfer::CoarsenOperator {
 public:
  void coarsen_batched(std::span<const xfer::CoarsenTask> tasks,
                       const mesh::IntVector& ratio) const override;
  const char* name() const override { return "volume-weighted-coarsen"; }
};

/// Mass-weighted conservative average for cell-centred data; the
/// auxiliary source is the fine density.
class MassWeightedCoarsen : public xfer::CoarsenOperator {
 public:
  void coarsen_batched(std::span<const xfer::CoarsenTask> tasks,
                       const mesh::IntVector& ratio) const override;
  bool needs_aux() const override { return true; }
  const char* name() const override { return "mass-weighted-coarsen"; }
};

/// Plain arithmetic average for side-centred data along the face: coarse
/// face value is the mean of the r coincident fine faces (fluxes).
class SideSumCoarsen : public xfer::CoarsenOperator {
 public:
  void coarsen_batched(std::span<const xfer::CoarsenTask> tasks,
                       const mesh::IntVector& ratio) const override;
  const char* name() const override { return "side-sum-coarsen"; }
};

}  // namespace ramr::geom
