// Tests for the hydrodynamics kernels (CloverLeaf scheme) and the exact
// Riemann solver, including a full Sod validation of the AMR application
// against the analytic solution.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "app/simulation.hpp"
#include "hydro/kernels.hpp"
#include "hydro/riemann.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::hydro {
namespace {

using mesh::Box;
using mesh::IntVector;
using pdat::cuda::CudaCellData;
using pdat::cuda::CudaNodeData;

class KernelTest : public ::testing::Test {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
  vgpu::Stream stream_{dev_, "test"};

  static void fill_view(util::View v, double value) {
    for (int j = v.jlo(); j < v.jlo() + v.height(); ++j) {
      for (int i = v.ilo(); i < v.ilo() + v.width(); ++i) {
        v(i, j) = value;
      }
    }
  }
};

TEST_F(KernelTest, IdealGasEquationOfState) {
  const Box box(0, 0, 7, 7);
  CudaCellData rho(dev_, box, IntVector(2, 2));
  CudaCellData e(dev_, box, IntVector(2, 2));
  CudaCellData p(dev_, box, IntVector(2, 2));
  CudaCellData ss(dev_, box, IntVector(2, 2));
  rho.fill(0.5);
  e.fill(3.0);
  const IdealGasPatch views{rho.device_view(), e.device_view(),
                            p.device_view(), ss.device_view()};
  ideal_gas_batched(dev_, stream_, {&box, 1}, {&views, 1});
  const auto pp = p.component(0).download_plane();
  const auto cc = ss.component(0).download_plane();
  const double expect_p = 0.4 * 0.5 * 3.0;  // (gamma-1) rho e
  const double expect_c = std::sqrt(1.4 * expect_p / 0.5);
  // Check an interior element (plane includes ghosts; index box 12x12,
  // interior (2,2) -> flat 2*12+2).
  EXPECT_NEAR(pp[2 * 12 + 2], expect_p, 1e-14);
  EXPECT_NEAR(cc[2 * 12 + 2], expect_c, 1e-14);
}

TEST_F(KernelTest, FieldSummaryIsIndependentOfThreadScheduling) {
  // Cell masses spanning 16 orders of magnitude make the floating-point
  // sums depend on their association order. The summary combines
  // fixed-size blocks in block order, so repeated reductions over the
  // same data agree bit for bit however the pool schedules its chunks.
  const Box box(0, 0, 255, 255);
  const CellGeom g{0.1, 0.1};
  CudaCellData rho(dev_, box, IntVector(0, 0));
  CudaCellData e(dev_, box, IntVector(0, 0));
  CudaNodeData u(dev_, box, IntVector(0, 0));
  CudaNodeData v(dev_, box, IntVector(0, 0));
  const util::View r = rho.device_view();
  const util::View uv = u.device_view();
  for (int j = 0; j <= 256; ++j) {
    for (int i = 0; i <= 256; ++i) {
      if (i < 256 && j < 256) {
        r(i, j) = std::pow(10.0, (7 * i + 3 * j) % 17 - 8);
      }
      uv(i, j) = 0.1 * ((i + 2 * j) % 5);
    }
  }
  e.fill(1.5);
  v.fill(0.25);
  const auto summary = [&] {
    return field_summary(dev_, stream_, box, g, rho.device_view(),
                         e.device_view(), u.device_view(), v.device_view());
  };
  const FieldSummary first = summary();
  for (int repeat = 0; repeat < 30; ++repeat) {
    const FieldSummary again = summary();
    ASSERT_EQ(again.mass, first.mass) << "repeat " << repeat;
    ASSERT_EQ(again.internal_energy, first.internal_energy);
    ASSERT_EQ(again.kinetic_energy, first.kinetic_energy);
  }
}

TEST_F(KernelTest, ViscosityZeroInUniformFlow) {
  const Box box(0, 0, 7, 7);
  const CellGeom g{0.1, 0.1};
  CudaCellData rho(dev_, box, IntVector(2, 2));
  CudaCellData p(dev_, box, IntVector(2, 2));
  CudaCellData q(dev_, box, IntVector(2, 2));
  CudaNodeData xv(dev_, box, IntVector(2, 2));
  CudaNodeData yv(dev_, box, IntVector(2, 2));
  rho.fill(1.0);
  p.fill(1.0);
  xv.fill(0.7);  // uniform translation: no compression
  yv.fill(-0.3);
  q.fill(99.0);
  const ViscosityPatch views{rho.device_view(), p.device_view(),
                             q.device_view(), xv.device_view(),
                             yv.device_view()};
  viscosity_batched(dev_, stream_, {&box, 1}, g, {&views, 1});
  const auto qq = q.component(0).download_plane();
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_DOUBLE_EQ(qq[static_cast<std::size_t>((j + 2) * 12 + i + 2)], 0.0);
    }
  }
}

TEST_F(KernelTest, ViscosityPositiveInCompression) {
  const Box box(0, 0, 7, 7);
  const CellGeom g{0.1, 0.1};
  CudaCellData rho(dev_, box, IntVector(2, 2));
  CudaCellData p(dev_, box, IntVector(2, 2));
  CudaCellData q(dev_, box, IntVector(2, 2));
  CudaNodeData xv(dev_, box, IntVector(2, 2));
  CudaNodeData yv(dev_, box, IntVector(2, 2));
  rho.fill(1.0);
  yv.fill(0.0);
  // Converging x velocity with a pressure gradient behind it.
  {
    std::vector<double> plane;
    const Box nb = xv.component(0).index_box();
    for (int j = nb.lower().j; j <= nb.upper().j; ++j) {
      for (int i = nb.lower().i; i <= nb.upper().i; ++i) {
        plane.push_back(i < 4 ? 1.0 : -1.0);
      }
    }
    xv.component(0).upload_plane(plane);
  }
  {
    std::vector<double> plane;
    const Box cb = p.component(0).index_box();
    for (int j = cb.lower().j; j <= cb.upper().j; ++j) {
      for (int i = cb.lower().i; i <= cb.upper().i; ++i) {
        plane.push_back(1.0 + 0.2 * i);
      }
    }
    p.component(0).upload_plane(plane);
  }
  const ViscosityPatch views{rho.device_view(), p.device_view(),
                             q.device_view(), xv.device_view(),
                             yv.device_view()};
  viscosity_batched(dev_, stream_, {&box, 1}, g, {&views, 1});
  const auto qq = q.component(0).download_plane();
  // The compression column (i = 3..4) must have positive q somewhere.
  double max_q = 0.0;
  for (double v : qq) {
    max_q = std::max(max_q, v);
  }
  EXPECT_GT(max_q, 0.0);
}

TEST_F(KernelTest, CalcDtMatchesSoundSpeedCfl) {
  const Box box(0, 0, 15, 15);
  const CellGeom g{0.01, 0.02};
  CudaCellData rho(dev_, box, IntVector(2, 2));
  CudaCellData ss(dev_, box, IntVector(2, 2));
  CudaCellData q(dev_, box, IntVector(2, 2));
  CudaNodeData xv(dev_, box, IntVector(2, 2));
  CudaNodeData yv(dev_, box, IntVector(2, 2));
  rho.fill(1.0);
  ss.fill(2.0);
  q.fill(0.0);
  xv.fill(0.0);
  yv.fill(0.0);
  const CalcDtPatch views{rho.device_view(), ss.device_view(),
                          q.device_view(), xv.device_view(), yv.device_view()};
  const double dt = calc_dt_batched(dev_, stream_, {&box, 1}, g, {&views, 1});
  // At rest: dt = dtc_safe * min(dx, dy) / c.
  EXPECT_NEAR(dt, 0.7 * 0.01 / 2.0, 1e-15);
}

TEST_F(KernelTest, PdvUniformVelocityLeavesStateUnchanged) {
  const Box box(0, 0, 7, 7);
  const CellGeom g{0.1, 0.1};
  CudaCellData rho0(dev_, box, IntVector(2, 2)), rho1(dev_, box, IntVector(2, 2));
  CudaCellData e0(dev_, box, IntVector(2, 2)), e1(dev_, box, IntVector(2, 2));
  CudaCellData p(dev_, box, IntVector(2, 2)), q(dev_, box, IntVector(2, 2));
  CudaNodeData xv0(dev_, box, IntVector(2, 2)), yv0(dev_, box, IntVector(2, 2));
  CudaNodeData xv1(dev_, box, IntVector(2, 2)), yv1(dev_, box, IntVector(2, 2));
  rho0.fill(1.5);
  e0.fill(2.0);
  p.fill(1.2);
  q.fill(0.0);
  xv0.fill(0.4);
  yv0.fill(0.4);
  xv1.fill(0.4);
  yv1.fill(0.4);
  const PdvPatch views{xv0.device_view(),  yv0.device_view(),
                       xv1.device_view(),  yv1.device_view(),
                       rho0.device_view(), rho1.device_view(),
                       e0.device_view(),   e1.device_view(),
                       p.device_view(),    q.device_view()};
  pdv_batched(dev_, stream_, {&box, 1}, g, 0.01, /*predict=*/true,
              {&views, 1});
  // Uniform translation: no volume change, density1 == density0.
  const auto r1 = rho1.component(0).download_plane();
  const auto ee1 = e1.component(0).download_plane();
  EXPECT_NEAR(r1[2 * 12 + 3], 1.5, 1e-14);
  EXPECT_NEAR(ee1[2 * 12 + 3], 2.0, 1e-14);
}

TEST_F(KernelTest, AccelerateUniformPressureGradient) {
  const Box box(0, 0, 7, 7);
  const CellGeom g{0.1, 0.1};
  CudaCellData rho(dev_, box, IntVector(2, 2));
  CudaCellData p(dev_, box, IntVector(2, 2));
  CudaCellData q(dev_, box, IntVector(2, 2));
  CudaNodeData xv0(dev_, box, IntVector(2, 2)), yv0(dev_, box, IntVector(2, 2));
  CudaNodeData xv1(dev_, box, IntVector(2, 2)), yv1(dev_, box, IntVector(2, 2));
  rho.fill(2.0);
  q.fill(0.0);
  xv0.fill(0.0);
  yv0.fill(0.0);
  {
    std::vector<double> plane;
    const Box cb = p.component(0).index_box();
    for (int j = cb.lower().j; j <= cb.upper().j; ++j) {
      for (int i = cb.lower().i; i <= cb.upper().i; ++i) {
        plane.push_back(10.0 - 3.0 * i);  // dp/dx = -3/dx
      }
    }
    p.component(0).upload_plane(plane);
  }
  const double dt = 0.01;
  const AcceleratePatch views{rho.device_view(), p.device_view(),
                              q.device_view(),   xv0.device_view(),
                              yv0.device_view(), xv1.device_view(),
                              yv1.device_view()};
  accelerate_batched(dev_, stream_, {&box, 1}, g, dt, {&views, 1});
  // a = -(dp/dx)/rho; the kernel's discrete form: for interior node,
  // xvel1 = -halfdt * (2 * xarea * (p_i - p_{i-1})) / (4 * rho * vol / 4)
  const double nodal_mass = 2.0 * g.volume();
  const double expect =
      -(0.5 * dt / nodal_mass) * (g.xarea() * (-3.0) + g.xarea() * (-3.0));
  const auto xv = xv1.component(0).download_plane();
  // Node (4, 4) -> flat ((4+2)*13 + 4+2) in the 13x13 node plane.
  EXPECT_NEAR(xv[6 * 13 + 6], expect, 1e-13);
  EXPECT_NEAR(xv1.component(0).download_plane()[6 * 13 + 7], expect, 1e-13);
}

TEST_F(KernelTest, FluxCalcUniformVelocity) {
  const Box box(0, 0, 3, 3);
  const CellGeom g{0.25, 0.5};
  CudaNodeData xv0(dev_, box, IntVector(2, 2)), yv0(dev_, box, IntVector(2, 2));
  CudaNodeData xv1(dev_, box, IntVector(2, 2)), yv1(dev_, box, IntVector(2, 2));
  pdat::cuda::CudaSideData vol_flux(dev_, box, IntVector(2, 2));
  xv0.fill(2.0);
  xv1.fill(2.0);
  yv0.fill(-1.0);
  yv1.fill(-1.0);
  const FluxCalcPatch views{xv0.device_view(),      yv0.device_view(),
                            xv1.device_view(),      yv1.device_view(),
                            vol_flux.device_view(0), vol_flux.device_view(1)};
  flux_calc_batched(dev_, stream_, {&box, 1}, g, 0.1, {&views, 1});
  // vol_flux_x = dt * xarea * u = 0.1 * 0.5 * 2 = 0.1.
  const auto fx = vol_flux.component(0).download_plane();
  const Box xb = vol_flux.component(0).index_box();
  EXPECT_NEAR(fx[static_cast<std::size_t>((2 - xb.lower().j) * xb.width() +
                                          (2 - xb.lower().i))],
              0.1, 1e-14);
  const auto fy = vol_flux.component(1).download_plane();
  const Box yb = vol_flux.component(1).index_box();
  EXPECT_NEAR(fy[static_cast<std::size_t>((2 - yb.lower().j) * yb.width() +
                                          (2 - yb.lower().i))],
              0.1 * 0.25 * -1.0, 1e-14);
}

// ---------------------------------------------------------------------------
// Exact Riemann solver

TEST(Riemann, SodStarStateMatchesTextbook) {
  const RiemannSolution sol(sod_left(), sod_right());
  EXPECT_NEAR(sol.star_pressure(), 0.30313, 2e-5);
  EXPECT_NEAR(sol.star_velocity(), 0.92745, 2e-5);
}

TEST(Riemann, FarFieldReturnsInitialStates) {
  const RiemannSolution sol(sod_left(), sod_right());
  EXPECT_DOUBLE_EQ(sol.sample(-10.0).rho, 1.0);
  EXPECT_DOUBLE_EQ(sol.sample(-10.0).p, 1.0);
  EXPECT_DOUBLE_EQ(sol.sample(10.0).rho, 0.125);
  EXPECT_DOUBLE_EQ(sol.sample(10.0).p, 0.1);
}

TEST(Riemann, ContactSeparatesDensityNotPressure) {
  const RiemannSolution sol(sod_left(), sod_right());
  const double u = sol.star_velocity();
  const auto left_of_contact = sol.sample(u - 1e-6);
  const auto right_of_contact = sol.sample(u + 1e-6);
  EXPECT_NEAR(left_of_contact.p, right_of_contact.p, 1e-9);
  EXPECT_NEAR(left_of_contact.u, right_of_contact.u, 1e-9);
  EXPECT_GT(left_of_contact.rho, right_of_contact.rho);  // Sod: 0.426 vs 0.266
  EXPECT_NEAR(left_of_contact.rho, 0.42632, 2e-5);
  EXPECT_NEAR(right_of_contact.rho, 0.26557, 2e-5);
}

TEST(Riemann, SymmetricProblemHasZeroStarVelocity) {
  const PrimitiveState s{1.0, 0.0, 1.0};
  const RiemannSolution sol(s, s);
  EXPECT_NEAR(sol.star_velocity(), 0.0, 1e-12);
  EXPECT_NEAR(sol.star_pressure(), 1.0, 1e-10);
}

TEST(Riemann, StrongShockRobust) {
  const RiemannSolution sol({1.0, 0.0, 1000.0}, {1.0, 0.0, 0.01});
  EXPECT_GT(sol.star_pressure(), 0.01);
  EXPECT_LT(sol.star_pressure(), 1000.0);
  EXPECT_GT(sol.star_velocity(), 0.0);
}

// ---------------------------------------------------------------------------
// End-to-end Sod validation against the exact solution.

TEST(SodValidation, AmrSolutionConvergesToExactProfile) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 128;
  cfg.ny = 32;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  const double t_end = 0.12;
  sim.run(100000, t_end);
  ASSERT_GE(sim.time(), t_end);

  const RiemannSolution exact(sod_left(), sod_right());
  // Sample the level-0 midline (fine data has been synced onto it).
  auto& l0 = sim.hierarchy().level(0);
  const int jmid = l0.domain_box().upper().j / 2;
  double l1_err = 0.0;
  int count = 0;
  for (const auto& patch : l0.local_patches()) {
    if (jmid < patch->box().lower().j || jmid > patch->box().upper().j) {
      continue;
    }
    auto& rho =
        patch->typed_data<pdat::cuda::CudaData>(sim.fields().density0);
    const auto plane = rho.component(0).download_plane();
    const Box ib = rho.component(0).index_box();
    util::ConstView v(plane.data(), ib.lower().i, ib.lower().j, ib.width(),
                      ib.height());
    for (int i = patch->box().lower().i; i <= patch->box().upper().i; ++i) {
      const double x = (i + 0.5) / l0.domain_box().width();
      const double expect = exact.sample((x - 0.5) / sim.time()).rho;
      l1_err += std::fabs(v(i, jmid) - expect);
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  // The AMR solution tracks the analytic profile (smearing only at the
  // discontinuities).
  EXPECT_LT(l1_err / count, 0.02) << "mean |rho - exact|";
}

}  // namespace
}  // namespace ramr::hydro
