// The wide-overlap subsystem: interior/rind stage decomposition (exact
// partition at every stencil depth, split sweeps bit-identical to the
// full stage), the widened split-phase schedule (every per-step halo
// exchange overlapped, distributed bit-exactness vs the synchronous
// path across regrids), the kRind launch-tag invariant, the
// per-window TransferCounters breakdown, and the fill-window sequence
// of every step shape.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "app/level_kernel_runner.hpp"
#include "app/simulation.hpp"
#include "mesh/box.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"
#include "vgpu/device.hpp"

namespace ramr {
namespace {

using mesh::Box;

// ---------------------------------------------------------------------------
// Interior/rind carving.

/// Every index of `region` must be covered exactly once by
/// region∩core + the rind pieces.
void expect_exact_partition(const Box& region, const Box& core) {
  const Box interior = region.intersect(core);
  std::map<std::pair<int, int>, int> covered;
  const auto mark = [&](const Box& b) {
    for (int j = b.lower().j; j <= b.upper().j; ++j) {
      for (int i = b.lower().i; i <= b.upper().i; ++i) {
        ++covered[{i, j}];
      }
    }
  };
  if (!interior.empty()) {
    mark(interior);
  }
  for (const Box& piece : mesh::rind_pieces(region, core).piece) {
    if (!piece.empty()) {
      EXPECT_TRUE(region.contains(piece));
      mark(piece);
    }
  }
  std::int64_t total = 0;
  for (const auto& [idx, count] : covered) {
    EXPECT_EQ(count, 1) << "index (" << idx.first << ", " << idx.second
                        << ") of region " << region << " core " << core;
    EXPECT_TRUE(region.contains(mesh::IntVector(idx.first, idx.second)));
    ++total;
  }
  EXPECT_EQ(total, region.size()) << "region " << region << " core " << core;
}

TEST(RindCarving, ExactPartitionAtEveryDepthIncludingThinPatches) {
  // Patch shapes from degenerate to typical, regions from the cell box
  // itself to the grown/extended index spaces the stages sweep, depths
  // past the point where the interior vanishes (patches thinner than
  // 2*depth must come out all-rind).
  const std::vector<Box> patches = {
      Box(0, 0, 0, 0),    Box(0, 0, 7, 0),   Box(0, 0, 0, 7),
      Box(-4, -4, 3, 3),  Box(0, 0, 7, 7),   Box(5, 9, 13, 13),
      Box(0, 0, 63, 63),  Box(2, 3, 10, 21),
  };
  const std::vector<std::pair<const char*, Box (*)(const Box&)>> regions = {
      {"cells", [](const Box& b) { return b; }},
      {"grow2", [](const Box& b) { return b.grow(2); }},
      {"nodes",
       [](const Box& b) { return mesh::to_centering(b, mesh::Centering::kNode); }},
      {"xfaces+2",
       [](const Box& b) {
         return Box(b.lower().i, b.lower().j, b.upper().i + 2, b.upper().j);
       }},
      {"asym",
       [](const Box& b) {
         return Box(b.lower().i - 2, b.lower().j, b.upper().i + 2,
                    b.upper().j + 1);
       }},
  };
  for (const Box& patch : patches) {
    for (const auto& [name, region_fn] : regions) {
      for (int depth = 0; depth <= 6; ++depth) {
        SCOPED_TRACE(testing::Message() << "patch " << patch << " region "
                                        << name << " depth " << depth);
        expect_exact_partition(region_fn(patch), patch.shrink(depth));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Split sweeps vs full stage, per stage (serial, no exchange in
// flight: interior-then-rind must reproduce kAll bit for bit).

app::SimulationConfig small_sod() {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.max_levels = 2;
  cfg.regrid_interval = 0;
  cfg.max_patch_cells = 16 * 16;
  cfg.min_patch_size = 8;  // thinner than twice the deepest rind depth
  return cfg;
}

/// Bitwise comparison of one variable over every patch interior.
void expect_var_identical(app::Simulation& a, app::Simulation& b, int id) {
  for (int l = 0; l < a.hierarchy().num_levels(); ++l) {
    hier::PatchLevel& la = a.hierarchy().level(l);
    hier::PatchLevel& lb = b.hierarchy().level(l);
    for (const auto& pa : la.local_patches()) {
      const auto pb = lb.local_patch(pa->global_id());
      ASSERT_NE(pb, nullptr);
      const auto& da = pa->typed_data<pdat::cuda::CudaData>(id);
      const auto& db = pb->typed_data<pdat::cuda::CudaData>(id);
      const mesh::Centering centering =
          a.hierarchy().variables().variable(id).centering;
      for (int k = 0; k < da.components(); ++k) {
        const Box region = mesh::to_centering(
            pa->box(), mesh::component_centering(centering, k));
        for (int d = 0; d < da.component(k).depth(); ++d) {
          const util::View va = da.device_view(k, d);
          const util::View vb = db.device_view(k, d);
          for (int j = region.lower().j; j <= region.upper().j; ++j) {
            for (int i = region.lower().i; i <= region.upper().i; ++i) {
              const double x = va(i, j);
              const double y = vb(i, j);
              ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                  << "level " << l << " patch " << pa->global_id() << " var "
                  << id << " comp " << k << " plane " << d << " at (" << i
                  << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(WideOverlap, InteriorPlusRindSweepsBitIdenticalToFullStage) {
  // Two identical simulations advanced one step; then each stencil stage
  // runs kAll on one and kInterior followed by kRind on the other. With
  // no exchange in flight the split must reproduce the full sweep bit
  // for bit on every output — including the in-place advection updates,
  // whose interior depths exist precisely so the rind flux sweeps never
  // read an updated value.
  app::Simulation a(small_sod(), nullptr);
  app::Simulation b(small_sod(), nullptr);
  a.initialize();
  b.initialize();
  a.step();
  b.step();

  app::LevelKernelRunner ra(a.device(), a.fields());
  app::LevelKernelRunner rb(b.device(), b.fields());
  const double dt = a.last_dt();
  using hydro::SweepPart;
  const auto split = [&](auto&& stage_a, auto&& stage_b) {
    for (int l = 0; l < a.hierarchy().num_levels(); ++l) {
      hier::PatchLevel& la = a.hierarchy().level(l);
      hier::PatchLevel& lb = b.hierarchy().level(l);
      const hydro::CellGeom g = app::geom_of(la);
      stage_a(la, g);
      stage_b(lb, g, SweepPart::kInterior);
      stage_b(lb, g, SweepPart::kRind);
    }
  };

  const app::Fields& f = a.fields();
  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.viscosity(l, g);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.viscosity(l, g, p);
        });
  expect_var_identical(a, b, f.viscosity);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.accelerate(l, g, dt);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.accelerate(l, g, dt, p);
        });
  expect_var_identical(a, b, f.xvel1);
  expect_var_identical(a, b, f.yvel1);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.flux_calc(l, g, dt);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.flux_calc(l, g, dt, p);
        });
  expect_var_identical(a, b, f.vol_flux);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.pdv(l, g, dt, /*predict=*/true);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.pdv(l, g, dt, /*predict=*/true, p);
        });
  expect_var_identical(a, b, f.density1);
  expect_var_identical(a, b, f.energy1);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.advec_cell(l, g, /*x_direction=*/true, 1);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.advec_cell(l, g, /*x_direction=*/true, 1, p);
        });
  expect_var_identical(a, b, f.density1);
  expect_var_identical(a, b, f.energy1);
  expect_var_identical(a, b, f.mass_flux);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.advec_mom_both(l, g, /*x_direction=*/true, 1);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.advec_mom_both(l, g, /*x_direction=*/true, 1, p);
        });
  expect_var_identical(a, b, f.xvel1);
  expect_var_identical(a, b, f.yvel1);
  expect_var_identical(a, b, f.mom_flux);

  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.advec_cell(l, g, /*x_direction=*/false, 2);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.advec_cell(l, g, /*x_direction=*/false, 2, p);
        });
  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.advec_mom_both(l, g, /*x_direction=*/false, 2);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.advec_mom_both(l, g, /*x_direction=*/false, 2, p);
        });
  split([&](hier::PatchLevel& l, const hydro::CellGeom& g) {
          ra.reset_field(l, g);
        },
        [&](hier::PatchLevel& l, const hydro::CellGeom& g, SweepPart p) {
          rb.reset_field(l, g, p);
        });
  expect_var_identical(a, b, f.density0);
  expect_var_identical(a, b, f.energy0);
  expect_var_identical(a, b, f.xvel0);
  expect_var_identical(a, b, f.yvel0);
}

// ---------------------------------------------------------------------------
// End-to-end wide overlap.

app::SimulationConfig sod_512(bool async, bool wide) {
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 512;
  cfg.ny = 512;
  cfg.max_levels = 3;
  cfg.regrid_interval = 4;  // regrids inside the comparison window
  cfg.max_patch_cells = 64 * 64;
  cfg.min_patch_size = 8;
  cfg.async_overlap = async;
  cfg.wide_overlap = wide;
  return cfg;
}

using FieldKey = std::tuple<int, int, int, int, int>;
std::map<FieldKey, std::vector<double>> snapshot_fields(app::Simulation& sim) {
  std::map<FieldKey, std::vector<double>> out;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    hier::PatchLevel& level = sim.hierarchy().level(l);
    for (const auto& p : level.local_patches()) {
      for (int id = 0; id < p->data_count(); ++id) {
        const auto& cd = p->typed_data<pdat::cuda::CudaData>(id);
        const mesh::Centering centering =
            sim.hierarchy().variables().variable(id).centering;
        for (int k = 0; k < cd.components(); ++k) {
          const mesh::Box region = mesh::to_centering(
              p->box(), mesh::component_centering(centering, k));
          for (int d = 0; d < cd.component(k).depth(); ++d) {
            const util::View v = cd.device_view(k, d);
            std::vector<double> vals;
            vals.reserve(static_cast<std::size_t>(region.size()));
            for (int j = region.lower().j; j <= region.upper().j; ++j) {
              for (int i = region.lower().i; i <= region.upper().i; ++i) {
                vals.push_back(v(i, j));
              }
            }
            out.emplace(FieldKey{l, p->global_id(), id, k, d},
                        std::move(vals));
          }
        }
      }
    }
  }
  return out;
}

TEST(WideOverlap, BitIdenticalToSynchronousOverTenStepsWithRegrids) {
  // Ten full distributed steps of the 512^2 3-level small-patch Sod,
  // crossing two regrids, with EVERY per-step exchange split-phase and
  // every stencil stage swept interior-then-rind: fields must match the
  // synchronous run bit for bit on every rank. This is the wide-overlap
  // acceptance contract: the widened window is a timing-model change
  // only.
  constexpr int kRanks = 2;
  constexpr int kSteps = 10;
  std::mutex mu;
  std::map<int, std::map<FieldKey, std::vector<double>>> sync_fields;
  std::map<int, double> sync_dt;
  {
    simmpi::World world(kRanks, simmpi::fdr_infiniband());
    world.run([&](simmpi::Communicator& comm) {
      app::Simulation sim(sod_512(false, false), &comm);
      sim.initialize();
      sim.run(kSteps);
      auto fields = snapshot_fields(sim);
      std::lock_guard<std::mutex> lock(mu);
      sync_dt[comm.rank()] = sim.last_dt();
      sync_fields[comm.rank()] = std::move(fields);
    });
  }
  std::int64_t planes_checked = 0;
  {
    simmpi::World world(kRanks, simmpi::fdr_infiniband());
    world.run([&](simmpi::Communicator& comm) {
      app::Simulation sim(sod_512(true, true), &comm);
      sim.initialize();
      sim.run(kSteps);
      const app::TransferCounters& tc = sim.integrator().transfer_counters();
      ASSERT_GT(tc.split_fills, 0u);
      // Wide overlap splits every window, not just the state exchange.
      for (int w = 0; w < app::TransferCounters::kWindowCount; ++w) {
        ASSERT_GT(tc.window[w].fills, 0u)
            << app::TransferCounters::window_name(w);
        ASSERT_GT(tc.window[w].split_fills, 0u)
            << app::TransferCounters::window_name(w);
        ASSERT_LE(tc.window[w].split_fills, tc.window[w].fills);
      }
      // Rind launches exist and the seven launch tags still partition
      // the total.
      const vgpu::Device& dev = sim.device();
      EXPECT_GT(dev.launch_count(vgpu::LaunchTag::kRind), 0u);
      std::uint64_t sum = 0;
      for (int t = 0; t < vgpu::kLaunchTagCount; ++t) {
        sum += dev.launch_count(static_cast<vgpu::LaunchTag>(t));
      }
      EXPECT_EQ(sum, dev.launch_count());
      auto fields = snapshot_fields(sim);
      std::lock_guard<std::mutex> lock(mu);
      ASSERT_DOUBLE_EQ(sim.last_dt(), sync_dt[comm.rank()]);
      const auto& expected = sync_fields[comm.rank()];
      ASSERT_EQ(fields.size(), expected.size()) << "rank " << comm.rank();
      for (const auto& [key, vals] : expected) {
        const auto it = fields.find(key);
        ASSERT_NE(it, fields.end());
        ASSERT_EQ(it->second.size(), vals.size());
        ASSERT_EQ(std::memcmp(it->second.data(), vals.data(),
                              vals.size() * sizeof(double)),
                  0)
            << "rank " << comm.rank() << " level " << std::get<0>(key)
            << " patch " << std::get<1>(key) << " var " << std::get<2>(key)
            << " comp " << std::get<3>(key) << " depth " << std::get<4>(key);
        ++planes_checked;
      }
    });
  }
  EXPECT_GT(planes_checked, 100);
}

TEST(WideOverlap, NarrowAblationStaysBitIdenticalAndRindFree) {
  // The single-window PR-4 path (wide_overlap=false) is retained for
  // ablation: still bit-identical to synchronous, and it must issue NO
  // rind launches — the stage splits are exclusively wide-mode.
  constexpr int kSteps = 5;
  app::SimulationConfig cfg = sod_512(false, false);
  cfg.nx = 256;
  cfg.ny = 256;
  app::Simulation sync_sim(cfg, nullptr);
  sync_sim.initialize();
  sync_sim.run(kSteps);
  const auto expected = snapshot_fields(sync_sim);

  cfg.async_overlap = true;
  cfg.wide_overlap = false;
  app::Simulation narrow(cfg, nullptr);
  narrow.initialize();
  narrow.run(kSteps);
  EXPECT_EQ(narrow.device().launch_count(vgpu::LaunchTag::kRind), 0u);
  auto fields = snapshot_fields(narrow);
  ASSERT_EQ(fields.size(), expected.size());
  for (const auto& [key, vals] : expected) {
    const auto it = fields.find(key);
    ASSERT_NE(it, fields.end());
    ASSERT_EQ(std::memcmp(it->second.data(), vals.data(),
                          vals.size() * sizeof(double)),
              0);
  }
}

TEST(WideOverlap, SavesMoreThanTheSingleWindowOnDistributedConfig) {
  // The point of the widened window: on a distributed fig10-style
  // configuration the wide path must hide strictly more modeled time
  // than the single-window path, and still beat the synchronous step
  // time.
  constexpr int kRanks = 4;
  constexpr int kSteps = 3;
  const auto cfg = [](bool async, bool wide) {
    app::SimulationConfig c;
    c.problem = "sod";
    c.nx = 256;
    c.ny = 256;
    c.max_levels = 3;
    c.regrid_interval = 10;
    c.max_patch_cells = 64 * 64;
    c.min_patch_size = 8;
    c.async_overlap = async;
    c.wide_overlap = wide;
    return c;
  };
  const auto run = [&](bool async, bool wide, double* saved) {
    std::mutex mu;
    double worst = 0.0;
    simmpi::World world(kRanks, simmpi::fdr_infiniband());
    world.run([&](simmpi::Communicator& comm) {
      app::Simulation sim(cfg(async, wide), &comm);
      sim.initialize();
      sim.clock().reset();
      sim.run(kSteps);
      std::lock_guard<std::mutex> lock(mu);
      if (sim.modeled_seconds() > worst) {
        worst = sim.modeled_seconds();
        if (saved != nullptr) {
          *saved = sim.timeline()->overlap_seconds_saved();
        }
      }
    });
    return worst;
  };
  double narrow_saved = 0.0;
  double wide_saved = 0.0;
  const double sync_worst = run(false, false, nullptr);
  const double narrow_worst = run(true, false, &narrow_saved);
  const double wide_worst = run(true, true, &wide_saved);
  EXPECT_GT(narrow_saved, 0.0);
  EXPECT_GT(wide_saved, narrow_saved);
  EXPECT_LT(wide_worst, sync_worst);
  (void)narrow_worst;
}

TEST(WideOverlap, WindowSequenceIsPinnedInEveryStepShape) {
  // Fills and split-phase fills of every fill window after three steps
  // of a 2-level Sod with no regrid, in the four step shapes: sync and
  // async on one rank, async on two ranks with and without wide
  // overlap. Two levels make two schedule executions per window per
  // fill; per step the pressure and post-cell windows run twice and
  // every other window once. Only the mode of a window changes with
  // the shape, never the sequence.
  using Counts = std::array<std::uint64_t, app::TransferCounters::kWindowCount>;
  struct Shape {
    const char* name;
    int ranks;
    bool async;
    bool wide;
    Counts fills;
    Counts split_fills;
  };
  // Per window: state, pressure, viscosity, preadvec, postcell.
  const Counts kFills = {6, 12, 6, 6, 12};
  const std::vector<Shape> shapes = {
      {"sync, 1 rank", 1, false, true, kFills, {0, 0, 0, 0, 0}},
      {"async, 1 rank", 1, true, true, kFills, {6, 0, 0, 0, 0}},
      {"async narrow, 2 ranks", 2, true, false, kFills, {6, 0, 0, 0, 0}},
      {"async wide, 2 ranks", 2, true, true, kFills, kFills},
  };
  for (const Shape& shape : shapes) {
    app::SimulationConfig cfg;
    cfg.problem = "sod";
    cfg.nx = 64;
    cfg.ny = 64;
    cfg.max_levels = 2;
    cfg.regrid_interval = 0;
    cfg.max_patch_cells = 16 * 16;
    cfg.async_overlap = shape.async;
    cfg.wide_overlap = shape.wide;
    std::mutex mu;
    std::vector<app::TransferCounters> per_rank;
    simmpi::World world(shape.ranks, simmpi::fdr_infiniband());
    world.run([&](simmpi::Communicator& comm) {
      app::Simulation sim(cfg, &comm);
      sim.initialize();
      ASSERT_EQ(sim.hierarchy().num_levels(), 2);
      sim.run(3);
      std::lock_guard<std::mutex> lock(mu);
      per_rank.push_back(sim.integrator().transfer_counters());
    });
    ASSERT_EQ(per_rank.size(), static_cast<std::size_t>(shape.ranks));
    for (const app::TransferCounters& tc : per_rank) {
      for (int w = 0; w < app::TransferCounters::kWindowCount; ++w) {
        const char* window = app::TransferCounters::window_name(w);
        EXPECT_EQ(tc.window[w].fills, shape.fills[w])
            << shape.name << ", window " << window;
        EXPECT_EQ(tc.window[w].split_fills, shape.split_fills[w])
            << shape.name << ", window " << window;
      }
    }
  }
}

}  // namespace
}  // namespace ramr
