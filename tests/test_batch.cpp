// Fused per-level kernel batching: SegmentTable dispatch, the fused
// launch/reduction cost model (one overhead, utilization from the total
// thread count), and the launch and readback counts of a whole step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "app/simulation.hpp"
#include "vgpu/device.hpp"
#include "vgpu/device_buffer.hpp"
#include "vgpu/launch_batch.hpp"

namespace ramr {
namespace {

using vgpu::Device;
using vgpu::KernelCost;
using vgpu::SegmentTable;
using vgpu::Stream;

TEST(SegmentTable, PrefixSumsAndLookup) {
  SegmentTable t;
  EXPECT_TRUE(t.empty());
  t.add(0, 0, 4, 3);   // 12 threads: [0, 12)
  t.add(10, 5, 0, 7);  // empty
  t.add(-2, -2, 2, 2); // 4 threads: [12, 16)
  EXPECT_EQ(t.segment_count(), 3u);
  EXPECT_EQ(t.total_threads(), 16);
  EXPECT_EQ(t.offset(0), 0);
  EXPECT_EQ(t.offset(1), 12);
  EXPECT_EQ(t.offset(2), 12);
  EXPECT_EQ(t.find(0), 0u);
  EXPECT_EQ(t.find(11), 0u);
  // The empty segment is never selected.
  EXPECT_EQ(t.find(12), 2u);
  EXPECT_EQ(t.find(15), 2u);
}

TEST(LaunchBatched, CoversEverySegmentElementOnce) {
  Device dev(vgpu::tesla_k20x());
  Stream stream(dev, "test");
  // Three disjoint tiles of one array, with an empty segment between.
  vgpu::DeviceBuffer<double> buf(dev, 10 * 10);
  util::View v(buf.device_ptr(), 0, 0, 10, 10);
  dev.launch2d(stream, 0, 0, 10, 10, KernelCost{0.0, 8.0},
               [=](int i, int j) { v(i, j) = 0.0; });
  SegmentTable t;
  t.add(0, 0, 3, 2);
  t.add(0, 0, 0, 0);  // empty
  t.add(5, 5, 2, 4);
  t.add(9, 0, 1, 1);
  dev.launch_batched(stream, t, KernelCost{1.0, 8.0},
                     [=](std::size_t seg, int i, int j) {
                       v(i, j) += 1.0 + static_cast<double>(seg);
                     });
  // Each covered element written exactly once with its segment id.
  for (int j = 0; j < 10; ++j) {
    for (int i = 0; i < 10; ++i) {
      double expected = 0.0;
      if (i < 3 && j < 2) expected = 1.0;
      if (i >= 5 && i < 7 && j >= 5 && j < 9) expected = 3.0;
      if (i == 9 && j == 0) expected = 4.0;
      ASSERT_DOUBLE_EQ(v(i, j), expected) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(LaunchBatched, MatchesPerSegmentLaunchesBitExactly) {
  // The fused launch must visit the same (i, j) sets with the same
  // arithmetic as one launch2d per segment.
  const std::vector<vgpu::LaunchSeg2D> tiles = {
      {0, 0, 7, 5}, {7, 0, 3, 5}, {0, 5, 10, 2}, {4, 7, 1, 1}};
  Device a(vgpu::tesla_k20x());
  Device b(vgpu::tesla_k20x());
  Stream sa(a, "a");
  Stream sb(b, "b");
  vgpu::DeviceBuffer<double> ba(a, 100);
  vgpu::DeviceBuffer<double> bb(b, 100);
  util::View va(ba.device_ptr(), 0, 0, 10, 10);
  util::View vb(bb.device_ptr(), 0, 0, 10, 10);
  // The tiles do not cover the whole array; give the uncovered elements
  // a defined value so the whole-buffer compare below is meaningful.
  a.launch2d(sa, 0, 0, 10, 10, KernelCost{0.0, 8.0},
             [=](int i, int j) { va(i, j) = -7.0; });
  b.launch2d(sb, 0, 0, 10, 10, KernelCost{0.0, 8.0},
             [=](int i, int j) { vb(i, j) = -7.0; });
  auto f = [](int i, int j) {
    return std::sin(0.1 * i) * std::cos(0.2 * j) + 1.0 / (1 + i + j);
  };
  for (const auto& s : tiles) {
    a.launch2d(sa, s.ilo, s.jlo, s.width, s.height, KernelCost{5.0, 8.0},
               [=](int i, int j) { va(i, j) = f(i, j); });
  }
  SegmentTable t;
  for (const auto& s : tiles) {
    t.add(s.ilo, s.jlo, s.width, s.height);
  }
  b.launch_batched(sb, t, KernelCost{5.0, 8.0},
                   [=](std::size_t, int i, int j) { vb(i, j) = f(i, j); });
  EXPECT_EQ(std::memcmp(ba.device_ptr(), bb.device_ptr(), 100 * sizeof(double)),
            0);
}

TEST(LaunchBatched, OneLaunchChargeAndMonotoneCost) {
  // P small patches fused: ONE launch overhead and utilization from the
  // total thread count, so modeled time is strictly below P separate
  // launches (and at least the one-big-grid lower bound).
  const int patches = 16;
  const int side = 32;  // 1k threads each: deep in the occupancy ramp
  Device separate(vgpu::tesla_k20x());
  Device fused(vgpu::tesla_k20x());
  Stream ss(separate, "s");
  Stream sf(fused, "f");
  const KernelCost cost{10.0, 48.0};
  SegmentTable t;
  for (int p = 0; p < patches; ++p) {
    separate.launch2d(ss, p * side, 0, side, side, cost, [](int, int) {});
    t.add(p * side, 0, side, side);
  }
  fused.launch_batched(sf, t, cost, [](std::size_t, int, int) {});
  EXPECT_EQ(separate.launch_count(), static_cast<std::uint64_t>(patches));
  EXPECT_EQ(fused.launch_count(), 1u);
  EXPECT_LT(fused.clock().total(), separate.clock().total());
  EXPECT_EQ(fused.kernel_seconds(), fused.clock().total());
  // Lower bound: the same total thread count as one launch.
  Device big(vgpu::tesla_k20x());
  Stream sbig(big, "big");
  big.launch(sbig, static_cast<std::int64_t>(patches) * side * side, cost,
             [](std::int64_t) {});
  EXPECT_DOUBLE_EQ(fused.clock().total(), big.clock().total());
}

TEST(LaunchBatched, EmptyTableChargesNothing) {
  Device dev(vgpu::tesla_k20x());
  Stream stream(dev, "test");
  SegmentTable t;
  t.add(0, 0, 0, 5);
  t.add(3, 3, 4, 0);
  dev.launch_batched(stream, t, KernelCost{1.0, 8.0},
                     [](std::size_t, int, int) { FAIL(); });
  EXPECT_DOUBLE_EQ(dev.clock().total(), 0.0);
  EXPECT_EQ(dev.launch_count(), 0u);
}

TEST(ReduceMinBatched, MatchesPerSegmentMinWithOneReadback) {
  Device per_patch(vgpu::tesla_k20x());
  Device fused(vgpu::tesla_k20x());
  Stream sp(per_patch, "p");
  Stream sf(fused, "f");
  auto f = [](int i, int j) { return 100.0 - std::sin(i * 0.3) * j; };
  const KernelCost cost{10.0, 8.0};
  double min_separate = std::numeric_limits<double>::infinity();
  SegmentTable t;
  const std::vector<vgpu::LaunchSeg2D> tiles = {
      {0, 0, 11, 7}, {20, 3, 5, 5}, {0, 0, 0, 0}, {-4, -4, 3, 9}};
  for (const auto& seg : tiles) {
    t.add(seg.ilo, seg.jlo, seg.width, seg.height);
    if (seg.size() == 0) {
      continue;
    }
    min_separate = std::min(
        min_separate,
        per_patch.reduce_min(
            sp, seg.size(), cost, [=](std::int64_t n) {
              const int i = seg.ilo + static_cast<int>(n % seg.width);
              const int j = seg.jlo + static_cast<int>(n / seg.width);
              return f(i, j);
            }));
  }
  const double min_fused = fused.reduce_min_batched(
      sf, t, cost, [=](std::size_t, int i, int j) { return f(i, j); });
  EXPECT_DOUBLE_EQ(min_fused, min_separate);
  // One scalar readback for the fused reduction, one per non-empty
  // segment for the per-patch path.
  EXPECT_EQ(fused.transfers().d2h_scalar_count, 1u);
  EXPECT_EQ(per_patch.transfers().d2h_scalar_count, 3u);
  // Empty table returns +inf without charges.
  SegmentTable empty;
  EXPECT_TRUE(std::isinf(fused.reduce_min_batched(
      sf, empty, cost, [](std::size_t, int, int) { return 0.0; })));
}

// ---------------------------------------------------------------------------
// End-to-end: the launch and readback counts of a multi-patch step.

app::SimulationConfig multi_patch_sod() {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 3;
  cfg.max_patch_cells = 16 * 16;  // force many patches per level
  cfg.min_patch_size = 8;
  return cfg;
}

TEST(BatchedStep, OneDtScalarReadbackPerLevelPerStep) {
  app::SimulationConfig cfg = multi_patch_sod();
  cfg.regrid_interval = 0;  // isolate the step traffic
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.step();
  const auto before = sim.device().transfers();
  sim.step();
  const auto delta = sim.device().transfers() - before;
  EXPECT_EQ(delta.d2h_scalar_count,
            static_cast<std::uint64_t>(sim.hierarchy().num_levels()));
}

TEST(BatchedStep, OneLaunchPerKernelSubStagePerLevel) {
  // A level with P patches must issue the per-stage launch counts of a
  // SINGLE patch: each kernel sub-stage fuses all patches into one
  // launch.
  app::SimulationConfig cfg = multi_patch_sod();
  cfg.regrid_interval = 0;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.step();  // populate every field so stages read valid data

  hier::PatchLevel& level = sim.hierarchy().level(0);
  ASSERT_GT(level.local_patches().size(), 1u);
  const hydro::CellGeom g = app::geom_of(level);
  const double dt = sim.last_dt();
  app::LevelKernelRunner runner(sim.device(), sim.fields());
  vgpu::Device& dev = sim.device();

  auto launches = [&](auto&& stage) {
    const std::uint64_t before = dev.launch_count();
    stage();
    return dev.launch_count() - before;
  };
  EXPECT_EQ(launches([&] { runner.ideal_gas(level, g, false); }), 1u);
  EXPECT_EQ(launches([&] { runner.viscosity(level, g); }), 1u);
  EXPECT_EQ(launches([&] { runner.compute_dt(level, g); }), 1u);
  EXPECT_EQ(launches([&] { runner.pdv(level, g, dt, true); }), 1u);
  EXPECT_EQ(launches([&] { runner.ideal_gas(level, g, true); }), 1u);
  EXPECT_EQ(launches([&] { runner.accelerate(level, g, dt); }), 1u);
  EXPECT_EQ(launches([&] { runner.pdv(level, g, dt, false); }), 1u);
  EXPECT_EQ(launches([&] { runner.flux_calc(level, g, dt); }), 2u);
  EXPECT_EQ(launches([&] { runner.advec_cell(level, g, true, 1); }), 3u);
  // BOTH velocity components in six launches, not twelve: the shared
  // volumes / node fluxes / node masses run once, and the per-component
  // momentum flux + velocity update fuse the two components.
  EXPECT_EQ(launches([&] { runner.advec_mom_both(level, g, true, 1); }), 6u);
  EXPECT_EQ(launches([&] { runner.reset_field(level, g); }), 2u);
}

}  // namespace
}  // namespace ramr
