// Property tests for the paper's data-parallel refine/coarsen operators:
// exactness on constants and linear fields, conservation under
// refinement and coarsening, injection identities, and the adjointness
// of volume-weighted coarsening with conservative refinement.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "geom/coarsen_operators.hpp"
#include "geom/refine_operators.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::geom {
namespace {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaCellData;
using pdat::cuda::CudaNodeData;
using pdat::cuda::CudaSideData;

/// Fills component k of device data using f(i, j) over its index box.
void fill_with(pdat::cuda::CudaData& d, int k,
               const std::function<double(int, int)>& f) {
  const Box ib = d.component(k).index_box();
  std::vector<double> plane(static_cast<std::size_t>(ib.size()));
  std::size_t n = 0;
  for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
    for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
      plane[n++] = f(i, j);
    }
  }
  d.component(k).upload_plane(plane);
}

/// Reads element (i, j) of component k (downloads the plane; test only).
double value_at(const pdat::cuda::CudaData& d, int k, int i, int j) {
  const Box ib = d.component(k).index_box();
  const auto plane = d.component(k).download_plane();
  const std::size_t idx = static_cast<std::size_t>(
      (j - ib.lower().j) * ib.width() + (i - ib.lower().i));
  return plane[idx];
}

/// Applies a refine operator to one patch: a one-task batch through the
/// operator's only entry point.
void refine_one(const xfer::RefineOperator& op, pdat::PatchData& dst,
                const pdat::PatchData& src, const Box& fine_cells,
                const IntVector& ratio) {
  const xfer::RefineTask task{&dst, &src, fine_cells};
  op.refine_batched({&task, 1}, ratio);
}

/// Applies a coarsen operator to one patch as a one-task batch.
void coarsen_one(const xfer::CoarsenOperator& op, pdat::PatchData& dst,
                 const pdat::PatchData& src, const pdat::PatchData* src_aux,
                 const Box& coarse_cells, const IntVector& ratio) {
  const xfer::CoarsenTask task{&dst, &src, src_aux, coarse_cells};
  op.coarsen_batched({&task, 1}, ratio);
}

class OperatorTest : public ::testing::Test {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

// ---------------------------------------------------------------------------
// NodeLinearRefine (paper Fig. 5)

TEST_F(OperatorTest, NodeLinearRefineReproducesLinearFieldsExactly) {
  for (int r : {2, 4}) {
    const IntVector ratio(r, r);
    const Box coarse_cells(0, 0, 7, 7);
    const Box fine_cells = coarse_cells.refine(ratio);
    CudaNodeData coarse(dev_, coarse_cells, IntVector(0, 0));
    CudaNodeData fine(dev_, fine_cells, IntVector(0, 0));
    // Linear in physical coordinates: node (I,J) on the coarse level sits
    // at the same point as fine node (I*r, J*r).
    fill_with(coarse, 0, [&](int i, int j) { return 2.0 * i * r + 3.0 * j * r; });
    fine.fill(-99.0);
    NodeLinearRefine op;
    refine_one(op, fine, coarse, fine_cells, ratio);
    const Box fb = fine.component(0).index_box();
    const auto plane = fine.component(0).download_plane();
    std::size_t n = 0;
    for (int j = fb.lower().j; j <= fb.upper().j; ++j) {
      for (int i = fb.lower().i; i <= fb.upper().i; ++i) {
        ASSERT_NEAR(plane[n++], 2.0 * i + 3.0 * j, 1e-12)
            << "r=" << r << " node (" << i << "," << j << ")";
      }
    }
  }
}

TEST_F(OperatorTest, NodeLinearRefineCoincidentNodesCopyExactly) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 3, 3);
  CudaNodeData coarse(dev_, coarse_cells, IntVector(0, 0));
  CudaNodeData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  fill_with(coarse, 0, [](int i, int j) { return std::sin(i * 1.7 + j); });
  NodeLinearRefine op;
  refine_one(op, fine, coarse, coarse_cells.refine(ratio), ratio);
  for (int j = 0; j <= 4; ++j) {
    for (int i = 0; i <= 4; ++i) {
      EXPECT_DOUBLE_EQ(value_at(fine, 0, 2 * i, 2 * j),
                       std::sin(i * 1.7 + j));
    }
  }
}

TEST_F(OperatorTest, NodeLinearRefineFillsOnlyRequestedRegion) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 7, 7);
  CudaNodeData coarse(dev_, coarse_cells, IntVector(0, 0));
  CudaNodeData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  coarse.fill(1.0);
  fine.fill(-5.0);
  NodeLinearRefine op;
  refine_one(op, fine, coarse, Box(0, 0, 3, 3), ratio);  // lower-left quadrant
  EXPECT_DOUBLE_EQ(value_at(fine, 0, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(value_at(fine, 0, 12, 12), -5.0);  // untouched
}

// ---------------------------------------------------------------------------
// CellConservativeLinearRefine

TEST_F(OperatorTest, CellRefineExactOnConstants) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 7, 7);
  CudaCellData coarse(dev_, coarse_cells, IntVector(1, 1));
  CudaCellData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  coarse.fill(4.5);
  CellConservativeLinearRefine op;
  refine_one(op, fine, coarse, coarse_cells.refine(ratio), ratio);
  const auto plane = fine.component(0).download_plane();
  for (double v : plane) {
    ASSERT_DOUBLE_EQ(v, 4.5);
  }
}

TEST_F(OperatorTest, CellRefineSecondOrderOnLinearData) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 9, 9);
  CudaCellData coarse(dev_, coarse_cells, IntVector(1, 1));
  CudaCellData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  // Linear in cell-centre coordinates (coarse centres at i+0.5).
  fill_with(coarse, 0, [](int i, int j) {
    return 3.0 * (i + 0.5) + 5.0 * (j + 0.5);
  });
  CellConservativeLinearRefine op;
  const Box fine_region(2, 2, 17, 17);  // interior: full stencil available
  refine_one(op, fine, coarse, fine_region, ratio);
  for (int j = 4; j <= 15; ++j) {
    for (int i = 4; i <= 15; ++i) {
      // Fine cell centre in coarse units: (i + 0.5)/2.
      const double expect = 3.0 * (i + 0.5) / 2.0 + 5.0 * (j + 0.5) / 2.0;
      ASSERT_NEAR(value_at(fine, 0, i, j), expect, 1e-12);
    }
  }
}

class CellRefineConservation : public ::testing::TestWithParam<int> {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

TEST_P(CellRefineConservation, SumOverChildrenMatchesParent) {
  const int r = GetParam();
  const IntVector ratio(r, r);
  const Box coarse_cells(0, 0, 9, 9);
  CudaCellData coarse(dev_, coarse_cells, IntVector(1, 1));
  CudaCellData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  fill_with(coarse, 0, [](int i, int j) {
    return 1.0 + std::exp(-0.1 * ((i - 4.0) * (i - 4.0) + (j - 5.0) * (j - 5.0)));
  });
  CellConservativeLinearRefine op;
  refine_one(op, fine, coarse, coarse_cells.refine(ratio), ratio);
  // For every interior coarse cell: mean of the r*r children equals the
  // parent value (conservation of the integral).
  for (int J = 1; J <= 8; ++J) {
    for (int I = 1; I <= 8; ++I) {
      double sum = 0.0;
      for (int jj = 0; jj < r; ++jj) {
        for (int ii = 0; ii < r; ++ii) {
          sum += value_at(fine, 0, I * r + ii, J * r + jj);
        }
      }
      ASSERT_NEAR(sum / (r * r), value_at(coarse, 0, I, J), 1e-12)
          << "coarse cell (" << I << "," << J << "), r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, CellRefineConservation,
                         ::testing::Values(2, 3, 4));

TEST_F(OperatorTest, CellRefineIntroducesNoNewExtrema) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 9, 9);
  CudaCellData coarse(dev_, coarse_cells, IntVector(1, 1));
  CudaCellData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  // A step function: the limiter must not overshoot.
  fill_with(coarse, 0, [](int i, int) { return i < 5 ? 1.0 : 10.0; });
  CellConservativeLinearRefine op;
  refine_one(op, fine, coarse, coarse_cells.refine(ratio), ratio);
  const auto plane = fine.component(0).download_plane();
  for (double v : plane) {
    ASSERT_GE(v, 1.0 - 1e-12);
    ASSERT_LE(v, 10.0 + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// SideConservativeLinearRefine

TEST_F(OperatorTest, SideRefineLinearAlongNormal) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 7, 7);
  CudaSideData coarse(dev_, coarse_cells, IntVector(0, 0));
  CudaSideData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  // x-faces linear in face position i (faces at integer x).
  fill_with(coarse, 0, [](int i, int) { return 4.0 * i; });
  fill_with(coarse, 1, [](int, int j) { return -2.0 * j; });
  SideConservativeLinearRefine op;
  refine_one(op, fine, coarse, coarse_cells.refine(ratio), ratio);
  // Fine x-face i sits at coarse position i/2: value 4*(i/2) = 2*i.
  for (int i = 0; i <= 16; ++i) {
    ASSERT_NEAR(value_at(fine, 0, i, 3), 2.0 * i, 1e-12);
  }
  for (int j = 0; j <= 16; ++j) {
    ASSERT_NEAR(value_at(fine, 1, 3, j), -1.0 * j, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// NodeInjectionCoarsen

TEST_F(OperatorTest, NodeInjectionPicksCoincidentFineNode) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 7, 7);
  CudaNodeData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  CudaNodeData coarse(dev_, coarse_cells, IntVector(0, 0));
  fill_with(fine, 0, [](int i, int j) { return 100.0 * i + j; });
  coarse.fill(0.0);
  NodeInjectionCoarsen op;
  coarsen_one(op, coarse, fine, nullptr, coarse_cells, ratio);
  for (int J = 0; J <= 8; ++J) {
    for (int I = 0; I <= 8; ++I) {
      ASSERT_DOUBLE_EQ(value_at(coarse, 0, I, J), 100.0 * (2 * I) + 2 * J);
    }
  }
}

// ---------------------------------------------------------------------------
// VolumeWeightedCoarsen (paper Figs. 7-8)

class VolumeCoarsenConservation : public ::testing::TestWithParam<int> {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

TEST_P(VolumeCoarsenConservation, ConservesTotalMass) {
  const int r = GetParam();
  const IntVector ratio(r, r);
  const Box coarse_cells(0, 0, 5, 5);
  const Box fine_cells = coarse_cells.refine(ratio);
  CudaCellData fine(dev_, fine_cells, IntVector(0, 0));
  CudaCellData coarse(dev_, coarse_cells, IntVector(0, 0));
  fill_with(fine, 0, [](int i, int j) {
    return 1.0 + 0.3 * std::sin(0.5 * i) * std::cos(0.7 * j);
  });
  VolumeWeightedCoarsen op;
  coarsen_one(op, coarse, fine, nullptr, coarse_cells, ratio);
  // Total mass: sum(rho_f * Vf) == sum(rho_c * Vc) with Vc = r^2 Vf.
  const auto fp = fine.component(0).download_plane();
  double fine_mass = 0.0;
  for (double v : fp) {
    fine_mass += v;
  }
  const auto cp = coarse.component(0).download_plane();
  double coarse_mass = 0.0;
  for (double v : cp) {
    coarse_mass += v * r * r;
  }
  EXPECT_NEAR(coarse_mass, fine_mass, std::fabs(fine_mass) * 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Ratios, VolumeCoarsenConservation,
                         ::testing::Values(2, 3, 4));

TEST_F(OperatorTest, VolumeCoarsenIsAverageForUniformCells) {
  const IntVector ratio(2, 2);
  CudaCellData fine(dev_, Box(0, 0, 3, 3), IntVector(0, 0));
  CudaCellData coarse(dev_, Box(0, 0, 1, 1), IntVector(0, 0));
  fill_with(fine, 0, [](int i, int j) { return i + 10.0 * j; });
  VolumeWeightedCoarsen op;
  coarsen_one(op, coarse, fine, nullptr, Box(0, 0, 1, 1), ratio);
  // Coarse (0,0) covers fine (0..1, 0..1): mean of {0, 1, 10, 11} = 5.5.
  EXPECT_DOUBLE_EQ(value_at(coarse, 0, 0, 0), 5.5);
}

// ---------------------------------------------------------------------------
// MassWeightedCoarsen

TEST_F(OperatorTest, MassWeightedCoarsenConservesInternalEnergy) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 3, 3);
  const Box fine_cells = coarse_cells.refine(ratio);
  CudaCellData energy_f(dev_, fine_cells, IntVector(0, 0));
  CudaCellData density_f(dev_, fine_cells, IntVector(0, 0));
  CudaCellData energy_c(dev_, coarse_cells, IntVector(0, 0));
  CudaCellData density_c(dev_, coarse_cells, IntVector(0, 0));
  fill_with(energy_f, 0, [](int i, int j) { return 2.0 + 0.1 * i - 0.05 * j; });
  fill_with(density_f, 0, [](int i, int j) { return 1.0 + 0.2 * ((i + j) % 3); });

  MassWeightedCoarsen e_op;
  VolumeWeightedCoarsen rho_op;
  EXPECT_TRUE(e_op.needs_aux());
  coarsen_one(e_op, energy_c, energy_f, &density_f, coarse_cells, ratio);
  coarsen_one(rho_op, density_c, density_f, nullptr, coarse_cells, ratio);

  // Total internal energy sum(rho e V) is identical on both levels.
  const auto ef = energy_f.component(0).download_plane();
  const auto rf = density_f.component(0).download_plane();
  double fine_e = 0.0;
  for (std::size_t n = 0; n < ef.size(); ++n) {
    fine_e += ef[n] * rf[n];
  }
  const auto ec = energy_c.component(0).download_plane();
  const auto rc = density_c.component(0).download_plane();
  double coarse_e = 0.0;
  for (std::size_t n = 0; n < ec.size(); ++n) {
    coarse_e += ec[n] * rc[n] * 4.0;  // Vc = 4 Vf
  }
  EXPECT_NEAR(coarse_e, fine_e, std::fabs(fine_e) * 1e-13);
}

TEST_F(OperatorTest, MassWeightedCoarsenRequiresAux) {
  const IntVector ratio(2, 2);
  CudaCellData fine(dev_, Box(0, 0, 3, 3), IntVector(0, 0));
  CudaCellData coarse(dev_, Box(0, 0, 1, 1), IntVector(0, 0));
  MassWeightedCoarsen op;
  EXPECT_THROW(coarsen_one(op, coarse, fine, nullptr, Box(0, 0, 1, 1), ratio),
               util::Error);
}

// ---------------------------------------------------------------------------
// SideSumCoarsen

TEST_F(OperatorTest, SideCoarsenAveragesCoincidentFaces) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 3, 3);
  CudaSideData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  CudaSideData coarse(dev_, coarse_cells, IntVector(0, 0));
  fill_with(fine, 0, [](int i, int j) { return i + 0.25 * j; });
  fill_with(fine, 1, [](int i, int j) { return j - 0.5 * i; });
  SideSumCoarsen op;
  coarsen_one(op, coarse, fine, nullptr, coarse_cells, ratio);
  // Coarse x-face (I,J): mean over fine faces (2I, 2J) and (2I, 2J+1).
  EXPECT_DOUBLE_EQ(value_at(coarse, 0, 1, 1),
                   (2.0 + 0.25 * 2 + 2.0 + 0.25 * 3) / 2.0);
  // Coarse y-face (I,J): mean over fine faces (2I, 2J) and (2I+1, 2J).
  EXPECT_DOUBLE_EQ(value_at(coarse, 1, 1, 1),
                   (2.0 - 0.5 * 2 + 2.0 - 0.5 * 3) / 2.0);
}

// ---------------------------------------------------------------------------
// Adjointness: coarsen(refine(x)) == x for the conservative pair.

TEST_F(OperatorTest, VolumeCoarsenUndoesConservativeRefine) {
  const IntVector ratio(2, 2);
  const Box coarse_cells(0, 0, 9, 9);
  CudaCellData coarse(dev_, coarse_cells, IntVector(1, 1));
  CudaCellData fine(dev_, coarse_cells.refine(ratio), IntVector(0, 0));
  CudaCellData back(dev_, coarse_cells, IntVector(0, 0));
  fill_with(coarse, 0, [](int i, int j) {
    return 2.0 + std::sin(0.3 * i) + 0.5 * std::cos(0.4 * j);
  });
  CellConservativeLinearRefine refine_op;
  refine_one(refine_op, fine, coarse, coarse_cells.refine(ratio), ratio);
  VolumeWeightedCoarsen coarsen_op;
  coarsen_one(coarsen_op, back, fine, nullptr, coarse_cells, ratio);
  for (int J = 1; J <= 8; ++J) {
    for (int I = 1; I <= 8; ++I) {
      ASSERT_NEAR(value_at(back, 0, I, J), value_at(coarse, 0, I, J), 1e-12);
    }
  }
}

}  // namespace
}  // namespace ramr::geom
