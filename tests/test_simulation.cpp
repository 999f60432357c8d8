// Integration tests: full CleverLeaf runs through the public Simulation
// API — hierarchy construction, conservation on the composite mesh,
// CPU/GPU backend equivalence, residency accounting, regridding, and
// serial-vs-distributed agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "app/simulation.hpp"
#include "util/statistics.hpp"

namespace ramr::app {
namespace {

SimulationConfig small_sod() {
  SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  cfg.max_patch_cells = 32 * 32;
  cfg.min_patch_size = 8;
  return cfg;
}

TEST(Simulation, InitialHierarchyRefinesTheShockInterface) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  auto& h = sim.hierarchy();
  ASSERT_GE(h.num_levels(), 2);
  // The Sod interface at x = 0.5 must be covered by the finest level.
  const auto& fine = h.level(h.finest_level_number());
  const mesh::Box domain = fine.domain_box();
  const int mid_i = domain.width() / 2;
  bool covers_interface = false;
  for (const mesh::Box& b : fine.boxes().boxes()) {
    if (b.lower().i <= mid_i && mid_i <= b.upper().i) {
      covers_interface = true;
      break;
    }
  }
  EXPECT_TRUE(covers_interface);
  // Refinement must be partial (the whole point of AMR): the fine level
  // covers less than the full domain.
  EXPECT_LT(fine.total_cells(), fine.domain_box().size());
}

TEST(Simulation, ProperNestingHolds) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  auto& h = sim.hierarchy();
  for (int l = 1; l < h.num_levels(); ++l) {
    const auto& fine = h.level(l);
    const auto& coarse = h.level(l - 1);
    mesh::BoxList coarse_union = coarse.boxes();
    for (const mesh::Box& b : fine.boxes().boxes()) {
      const mesh::Box cb = b.coarsen(fine.ratio_to_coarser());
      EXPECT_TRUE(coarse_union.contains_box(cb))
          << "level " << l << " box " << b << " not nested";
    }
  }
}

TEST(Simulation, MassAndEnergyConservedOverManySteps) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  const hydro::FieldSummary before = sim.composite_summary();
  ASSERT_GT(before.mass, 0.0);
  sim.run(30);
  EXPECT_EQ(sim.step_count(), 30);
  EXPECT_GT(sim.time(), 0.0);
  const hydro::FieldSummary after = sim.composite_summary();
  // Reflective walls: mass exactly conserved up to refinement-boundary
  // truncation; total energy conserved to the same order.
  EXPECT_LT(util::rel_diff(before.mass, after.mass), 2.0e-3);
  const double e_before = before.internal_energy + before.kinetic_energy;
  const double e_after = after.internal_energy + after.kinetic_energy;
  EXPECT_LT(util::rel_diff(e_before, e_after), 2.0e-3);
  // The shock converts internal energy into kinetic energy.
  EXPECT_GT(after.kinetic_energy, 0.0);
}

TEST(Simulation, UniformSingleLevelConservesExactly) {
  SimulationConfig cfg = small_sod();
  cfg.max_levels = 1;  // no AMR: mass conservation at round-off
  Simulation sim(cfg, nullptr);
  sim.initialize();
  const auto before = sim.composite_summary();
  sim.run(25);
  const auto after = sim.composite_summary();
  EXPECT_LT(util::rel_diff(before.mass, after.mass), 1.0e-12);
  // Total energy is not a conserved variable of the staggered scheme
  // (CloverLeaf advects internal energy, and artificial viscosity does
  // irreversible work); the drift is small and bounded.
  EXPECT_LT(util::rel_diff(before.internal_energy + before.kinetic_energy,
                           after.internal_energy + after.kinetic_energy),
            5.0e-3);
}

TEST(Simulation, DtIsPositiveAndBounded) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  for (int s = 0; s < 10; ++s) {
    const double dt = sim.step();
    ASSERT_GT(dt, 0.0);
    ASSERT_LT(dt, 1.0);
    ASSERT_FALSE(std::isnan(dt));
  }
}

TEST(Simulation, SolutionStaysFinite) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  sim.run(40);
  const auto s = sim.composite_summary();
  EXPECT_TRUE(std::isfinite(s.mass));
  EXPECT_TRUE(std::isfinite(s.internal_energy));
  EXPECT_TRUE(std::isfinite(s.kinetic_energy));
  EXPECT_GT(s.internal_energy, 0.0);
}

TEST(Simulation, CpuAndGpuBackendsAgreeBitwise) {
  SimulationConfig gpu_cfg = small_sod();
  gpu_cfg.device = vgpu::tesla_k20x();
  SimulationConfig cpu_cfg = small_sod();
  cpu_cfg.device = vgpu::xeon_e5_2670_node();

  Simulation gpu(gpu_cfg, nullptr);
  Simulation cpu(cpu_cfg, nullptr);
  gpu.initialize();
  cpu.initialize();
  gpu.run(15);
  cpu.run(15);
  // One math, two modeled backends: results must match exactly.
  const auto sg = gpu.composite_summary();
  const auto sc = cpu.composite_summary();
  EXPECT_DOUBLE_EQ(sg.mass, sc.mass);
  EXPECT_DOUBLE_EQ(sg.internal_energy, sc.internal_energy);
  EXPECT_DOUBLE_EQ(sg.kinetic_energy, sc.kinetic_energy);
  // ...while the modeled times differ (that's the whole experiment).
  EXPECT_NE(gpu.clock().component("hydro"), cpu.clock().component("hydro"));
}

TEST(Simulation, ResidencyNoPcieDuringPureHydroStages) {
  // The paper's claim: data lives on the GPU; PCIe traffic during a step
  // comes only from the dt scalar readback (timestep) — plus halo
  // staging when patches span ranks, which a serial run does not have...
  // except the coarse-fill gather between levels, which stages through
  // pack/unpack by design. So: assert that D2H bytes per step are tiny
  // compared with the resident data (< 1%).
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  sim.step();
  const auto before = sim.device().transfers();
  const auto resident = sim.device().bytes_allocated();
  sim.step();
  const auto delta = sim.device().transfers() - before;
  EXPECT_LT(delta.total_bytes(), resident / 100)
      << "step moved " << delta.total_bytes() << " of " << resident;
}

TEST(Simulation, RegriddingFollowsTheShock) {
  SimulationConfig cfg = small_sod();
  cfg.regrid_interval = 5;
  Simulation sim(cfg, nullptr);
  sim.initialize();
  // Bounding box of the finest level before and after the shock moves.
  auto fine_bounds = [&]() {
    return sim.hierarchy()
        .level(sim.hierarchy().finest_level_number())
        .boxes()
        .bounding_box();
  };
  const mesh::Box initial = fine_bounds();
  sim.run(60);
  const mesh::Box later = fine_bounds();
  // The rarefaction/shock system spreads: the refined region must widen.
  EXPECT_GT(later.width(), initial.width());
}

TEST(Simulation, RegriddingBoxListsArePinned) {
  // A 3-level Kelvin-Helmholtz 128^2 regridding every 5 steps. FNV-1a of
  // every level's box list after initialisation and after each of 20
  // steps (four regrids), plus the raw tag count: any change to tag
  // collection, buffering or clustering that moves one box fails here.
  // The reference was generated before the tag bitmap went word-parallel.
  SimulationConfig cfg;
  cfg.problem = "kelvin_helmholtz";
  cfg.nx = 128;
  cfg.ny = 128;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  cfg.tag_threshold = 0.02;
  Simulation sim(cfg, nullptr);
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](long long v) {
    for (int k = 0; k < 8; ++k) {
      h ^= static_cast<std::uint64_t>(v >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto fold_hierarchy = [&]() {
    for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
      fold(l);
      for (const mesh::Box& b : sim.hierarchy().level(l).boxes().boxes()) {
        fold(b.lower().i);
        fold(b.lower().j);
        fold(b.upper().i);
        fold(b.upper().j);
      }
    }
    fold(sim.gridding_stats().cells_tagged);
  };
  sim.initialize();
  fold_hierarchy();
  for (int step = 0; step < 20; ++step) {
    sim.step();
    fold_hierarchy();
  }
  EXPECT_EQ(sim.gridding_stats().regrids, 4);
  EXPECT_EQ(sim.hierarchy().num_levels(), 3);
  EXPECT_EQ(h, 0x1aadb9283577aa2full) << std::hex << "0x" << h << "ull";
}

TEST(Simulation, TriplePointRuns) {
  SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = 112;  // 7:3 aspect
  cfg.ny = 48;
  cfg.max_levels = 2;
  cfg.regrid_interval = 5;
  Simulation sim(cfg, nullptr);
  sim.initialize();
  const auto before = sim.composite_summary();
  sim.run(20);
  const auto after = sim.composite_summary();
  EXPECT_LT(util::rel_diff(before.mass, after.mass), 5.0e-3);
  EXPECT_GT(after.kinetic_energy, 0.0);
  EXPECT_GE(sim.hierarchy().num_levels(), 2);
}

TEST(Simulation, TriplePointFullSizeSurvivesRegrids) {
  // The full-size triple-point configuration of examples/triple_point
  // (224x96, 3 levels). The seed crashed here in optimized builds: regrid
  // created patches whose non-transferred fields were raw allocations,
  // and interpolation read uncovered scratch corners — NaN densities
  // killed tagging (the hierarchy collapsed), dt min-reduced over NaNs to
  // +inf, and the density map indexed with a NaN-derived value. Run well
  // past several regrids and assert dt and the composite state stay
  // finite and the hierarchy stays deep.
  SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = 224;
  cfg.ny = 96;
  cfg.max_levels = 3;
  cfg.regrid_interval = 10;
  Simulation sim(cfg, nullptr);
  sim.initialize();
  ASSERT_EQ(sim.hierarchy().num_levels(), 3);
  for (int s = 0; s < 45; ++s) {
    const double dt = sim.step();
    ASSERT_TRUE(std::isfinite(dt)) << "dt diverged at step " << s + 1;
    ASSERT_GT(dt, 0.0);
  }
  EXPECT_EQ(sim.hierarchy().num_levels(), 3)
      << "NaN-corrupted tagging collapses the hierarchy";
  const auto sum = sim.composite_summary();
  EXPECT_TRUE(std::isfinite(sum.mass));
  EXPECT_TRUE(std::isfinite(sum.internal_energy));
  EXPECT_TRUE(std::isfinite(sum.kinetic_energy));
  EXPECT_GT(sum.kinetic_energy, 0.0);
}

TEST(Simulation, DistributedMatchesSerial) {
  const int kSteps = 12;
  // Serial reference.
  Simulation serial(small_sod(), nullptr);
  serial.initialize();
  serial.run(kSteps);
  const auto ref = serial.composite_summary();

  for (int ranks : {2, 4}) {
    simmpi::World world(ranks, simmpi::fdr_infiniband());
    std::vector<hydro::FieldSummary> results(1);
    world.run([&](simmpi::Communicator& comm) {
      Simulation sim(small_sod(), &comm);
      sim.initialize();
      sim.run(kSteps);
      const auto s = sim.composite_summary();
      if (comm.rank() == 0) {
        results[0] = s;
      }
    });
    EXPECT_NEAR(results[0].mass, ref.mass, std::fabs(ref.mass) * 1e-12)
        << ranks << " ranks";
    EXPECT_NEAR(results[0].internal_energy, ref.internal_energy,
                std::fabs(ref.internal_energy) * 1e-12)
        << ranks << " ranks";
    EXPECT_NEAR(results[0].kinetic_energy, ref.kinetic_energy,
                std::fabs(ref.kinetic_energy) * 1e-11)
        << ranks << " ranks";
  }
}

TEST(Simulation, CommunicatorGetsItsOwnClockBackOnDestruction) {
  // A Simulation charges network time to its own clock through the
  // communicator. The communicator outlives it (it belongs to the
  // World::run body), so destruction must hand the communicator back
  // its own clock: a collective afterwards charges live memory.
  SimulationConfig cfg = small_sod();
  cfg.max_levels = 1;
  simmpi::World world(2, simmpi::ideal_network());
  world.run([&](simmpi::Communicator& comm) {
    const vgpu::SimClock* sim_clock = nullptr;
    {
      Simulation sim(cfg, &comm);
      sim.initialize();
      sim_clock = &sim.clock();
      EXPECT_EQ(&comm.clock(), sim_clock);
    }
    EXPECT_NE(&comm.clock(), sim_clock);
    const double before = comm.clock().total();
    EXPECT_EQ(comm.allreduce(1.0, simmpi::ReduceOp::kSum), 2.0);
    EXPECT_GT(comm.clock().total(), before);
  });
}

TEST(Simulation, ClockRecordsAllComponents) {
  Simulation sim(small_sod(), nullptr);
  sim.initialize();
  sim.run(10);
  auto& clock = sim.clock();
  EXPECT_GT(clock.component("hydro"), 0.0);
  EXPECT_GT(clock.component("boundary"), 0.0);
  EXPECT_GT(clock.component("timestep"), 0.0);
  EXPECT_GT(clock.component("sync"), 0.0);
  EXPECT_GT(clock.component("regrid"), 0.0);
  EXPECT_GT(clock.total(), 0.0);
}

}  // namespace
}  // namespace ramr::app
