// Compiled transfer plans (xfer::TransferSchedule): plan compilation and
// caching, fused launch budgets (pack launches == messages sent, unpack
// launches == messages received, one local-copy launch per exchange),
// ghost values against an analytic oracle for every centring, seam
// snapshot semantics, and plan-cache invalidation on schedule rebuild.
// Whole-run bit-exactness is pinned by the committed field hashes
// (test_field_hashes.cpp).
#include <gtest/gtest.h>

#include <functional>

#include "app/simulation.hpp"
#include "geom/refine_operators.hpp"
#include "hier/patch_hierarchy.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"
#include "xfer/refine_schedule.hpp"

namespace ramr::xfer {
namespace {

using hier::GlobalPatch;
using hier::PatchHierarchy;
using hier::PatchLevel;
using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaData;
using vgpu::LaunchTag;

/// Two-level hierarchy: level 0 has two side-by-side patches covering a
/// 16x8 domain; level 1 refines the middle 8x4 region (ratio 2).
struct Fixture {
  vgpu::Device device{vgpu::tesla_k20x()};
  PatchHierarchy hierarchy;
  int var = -1;
  int var2 = -1;
  ParallelContext ctx;

  explicit Fixture(Centering centering = Centering::kCell, int rank = 0,
                   int world = 1, simmpi::Communicator* comm = nullptr)
      : hierarchy(mesh::GridGeometry(Box(0, 0, 15, 7), {0.0, 0.0}, {2.0, 1.0}),
                  2, IntVector(2, 2), rank, world) {
    ctx.my_rank = rank;
    ctx.world_size = world;
    ctx.comm = comm;
    var = hierarchy.variables().register_variable(
        hier::Variable{"u", centering, 1, IntVector(2, 2)},
        std::make_shared<pdat::cuda::CudaDataFactory>(device, centering,
                                                      IntVector(2, 2), 1));
    var2 = hierarchy.variables().register_variable(
        hier::Variable{"v", centering, 1, IntVector(2, 2)},
        std::make_shared<pdat::cuda::CudaDataFactory>(device, centering,
                                                      IntVector(2, 2), 1));
    std::vector<GlobalPatch> l0 = {{Box(0, 0, 7, 7), 0, 0},
                                   {Box(8, 0, 15, 7), world > 1 ? 1 : 0, 1}};
    auto level0 = std::make_shared<PatchLevel>(0, IntVector(1, 1),
                                               IntVector(1, 1), l0, rank,
                                               hierarchy.geometry());
    level0->allocate_data(hierarchy.variables());
    hierarchy.set_level(0, level0);
    std::vector<GlobalPatch> l1 = {{Box(8, 4, 23, 11), 0, 0}};
    auto level1 = std::make_shared<PatchLevel>(1, IntVector(2, 2),
                                               IntVector(2, 2), l1, rank,
                                               hierarchy.geometry());
    level1->allocate_data(hierarchy.variables());
    hierarchy.set_level(1, level1);
  }

  void fill(hier::Patch& p, const std::function<double(int, int)>& f,
            int which = -1) {
    auto& cd = p.typed_data<CudaData>(which < 0 ? var : which);
    for (int k = 0; k < cd.components(); ++k) {
      const Box ib = cd.component(k).index_box();
      std::vector<double> plane(static_cast<std::size_t>(ib.size()));
      std::size_t n = 0;
      for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
        for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
          plane[n++] = f(i, j) + 1000.0 * k;
        }
      }
      cd.component(k).upload_plane(plane);
    }
  }

  double at(hier::Patch& p, int i, int j, int k = 0, int which = -1) {
    auto& cd = p.typed_data<CudaData>(which < 0 ? var : which);
    const Box ib = cd.component(k).index_box();
    const auto plane = cd.component(k).download_plane();
    return plane[static_cast<std::size_t>((j - ib.lower().j) * ib.width() +
                                          (i - ib.lower().i))];
  }
};

std::uint64_t tag_count(const vgpu::Device& dev, LaunchTag tag) {
  return dev.launch_count(tag);
}

TEST(TransferPlan, PlansCompileOnFinalizeAndCacheAcrossExecutes) {
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  f.fill(*level0->local_patch(0), [](int i, int j) { return 10.0 * i + j; });
  f.fill(*level0->local_patch(1), [](int i, int j) { return -3.0 * i + j; });

  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  // Compilation happens in finalize (inside create_schedule), before any
  // execute.
  const TransferSchedule& engine = sched->same_level_engine();
  EXPECT_TRUE(engine.plans_compiled());
  EXPECT_GT(engine.plan_segment_count(), 0u);
  const std::size_t segments = engine.plan_segment_count();

  sched->fill();
  sched->fill();
  // Both executes ran against the SAME cached plan.
  EXPECT_EQ(engine.executions(), 2u);
  EXPECT_EQ(engine.plan_segment_count(), segments);
  // Repeated fills are idempotent on already-exchanged data.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 8, 3), -3.0 * 8 + 3);
}

TEST(TransferPlan, OneLocalCopyLaunchPerExchange) {
  // Serial fill: every transaction is local, so the whole exchange (two
  // variables, several patch edges and overlap strips) must cost exactly
  // ONE fused local-copy device launch — and zero pack/unpack launches.
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  for (int gid : {0, 1}) {
    f.fill(*level0->local_patch(gid),
           [gid](int i, int j) { return gid * 100.0 + i + 0.01 * j; }, f.var);
    f.fill(*level0->local_patch(gid),
           [gid](int i, int j) { return gid * -7.0 + j - 0.5 * i; }, f.var2);
  }
  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  alg.add(RefineItem{f.var2, nullptr});
  auto sched = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  ASSERT_GT(sched->same_level_engine().transaction_count(), 2u);

  const std::uint64_t copy0 = tag_count(f.device, LaunchTag::kLocalCopy);
  const std::uint64_t pack0 = tag_count(f.device, LaunchTag::kTransferPack);
  const std::uint64_t unpack0 = tag_count(f.device, LaunchTag::kTransferUnpack);
  sched->fill();
  EXPECT_EQ(tag_count(f.device, LaunchTag::kLocalCopy) - copy0, 1u);
  EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferPack) - pack0, 0u);
  EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferUnpack) - unpack0, 0u);
  // Values match the per-transaction semantics.
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 8, 3, 0, f.var),
                   100.0 + 8 + 0.01 * 3);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(1), 7, 5, 0, f.var2), 5 - 0.5 * 7);
}

TEST(TransferPlan, PackUnpackLaunchesEqualMessageCounts) {
  // Two ranks: each sends ONE aggregated message per fill, so each rank
  // must issue exactly one fused pack launch and one fused unpack launch
  // (plus at most one local-copy launch), however many transactions the
  // message carries.
  simmpi::World world(2, simmpi::ideal_network());
  world.run([](simmpi::Communicator& comm) {
    Fixture f(Centering::kCell, comm.rank(), 2, &comm);
    f.ctx.device = &f.device;
    auto level0 = f.hierarchy.level_ptr(0);
    const auto fu = [](int i, int j) { return 100.0 * i + j; };
    const auto fv = [](int i, int j) { return -7.0 * i + 1.0 / (j + 3.0); };
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, fu, f.var);
        f.fill(*p, fv, f.var2);
      }
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    alg.add(RefineItem{f.var2, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);

    const std::uint64_t pack0 = tag_count(f.device, LaunchTag::kTransferPack);
    const std::uint64_t unpack0 =
        tag_count(f.device, LaunchTag::kTransferUnpack);
    sched->fill();
    EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferPack) - pack0,
              sched->messages_sent_per_fill());
    EXPECT_EQ(tag_count(f.device, LaunchTag::kTransferUnpack) - unpack0,
              sched->messages_received_per_fill());
    EXPECT_EQ(sched->messages_sent_per_fill(), 1u);
    EXPECT_EQ(sched->messages_received_per_fill(), 1u);
    // Ghost values are bit-exact copies of the remote field.
    if (comm.rank() == 0) {
      EXPECT_EQ(f.at(*level0->local_patch(0), 8, 3, 0, f.var), fu(8, 3));
      EXPECT_EQ(f.at(*level0->local_patch(0), 9, 0, 0, f.var2), fv(9, 0));
    } else {
      EXPECT_EQ(f.at(*level0->local_patch(1), 7, 5, 0, f.var), fu(7, 5));
      EXPECT_EQ(f.at(*level0->local_patch(1), 6, 7, 0, f.var2), fv(6, 7));
    }
  });
}

TEST(TransferPlan, GhostsMatchAnalyticOracle) {
  // Every element of each patch starts as a known function of (variable,
  // patch, component, i, j), ghosts included. After one same-level
  // exchange, every element inside the NEIGHBOUR's interior (in the
  // component's index space) must hold the neighbour's value — seam
  // lines included, which take the neighbour's pre-exchange value (see
  // SeamReadsSnapshotPreExchangeValues) — and every other element must
  // be untouched. Serially the local-copy plan moves the data; on two
  // ranks the pack and unpack plans do.
  const auto value = [](int which, int gid) {
    return [which, gid](int i, int j) {
      return 1.0e4 * which + 100.0 * gid + i + 0.01 * j;
    };
  };
  const Box interiors[2] = {Box(0, 0, 7, 7), Box(8, 0, 15, 7)};
  const auto run = [&](Centering centering, int world,
                       simmpi::Communicator* comm, int rank) {
    Fixture f(centering, rank, world, comm);
    auto level0 = f.hierarchy.level_ptr(0);
    for (int gid : {0, 1}) {
      if (auto p = level0->local_patch(gid)) {
        f.fill(*p, value(0, gid), f.var);
        f.fill(*p, value(1, gid), f.var2);
      }
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    alg.add(RefineItem{f.var2, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
    sched->fill();
    for (int gid : {0, 1}) {
      auto p = level0->local_patch(gid);
      if (p == nullptr) {
        continue;
      }
      const int other = 1 - gid;
      for (int which : {0, 1}) {
        auto& cd = p->typed_data<CudaData>(which == 0 ? f.var : f.var2);
        for (int k = 0; k < cd.components(); ++k) {
          const Box ib = cd.component(k).index_box();
          const Box covered = mesh::to_centering(
              interiors[other], mesh::component_centering(centering, k));
          const auto plane = cd.component(k).download_plane();
          std::int64_t mismatches = 0;
          std::size_t n = 0;
          for (int j = ib.lower().j; j <= ib.upper().j; ++j) {
            for (int i = ib.lower().i; i <= ib.upper().i; ++i) {
              const int src = covered.contains(IntVector(i, j)) ? other : gid;
              mismatches += plane[n++] != value(which, src)(i, j) + 1000.0 * k;
            }
          }
          EXPECT_EQ(mismatches, 0)
              << "centering " << static_cast<int>(centering) << " ranks "
              << world << " patch " << gid << " var " << which << " comp "
              << k;
        }
      }
    }
  };
  for (const Centering centering : {Centering::kCell, Centering::kNode,
                                    Centering::kSide}) {
    run(centering, 1, nullptr, 0);
    simmpi::World world(2, simmpi::ideal_network());
    world.run([&](simmpi::Communicator& comm) {
      run(centering, 2, &comm, comm.rank());
    });
  }
}

TEST(TransferPlan, SeamReadsSnapshotPreExchangeValues) {
  // Node-centred halo exchange: the destination ghost region includes the
  // patch-boundary node line, so each patch's seam column is both READ
  // (as the neighbour's source) and WRITTEN (as a ghost target) within
  // one exchange. The compiler snapshots such aliased reads before any
  // apply write (one extra gather launch), so every copied value is the
  // pre-exchange source value — exactly what a remote peer's pack ships.
  // Make the two patches DISAGREE at the seam and check both properties.
  const auto fp = [](int i, int j) { return 1000.0 + 10.0 * i + j; };
  const auto fq = [](int i, int j) { return -2000.0 - 10.0 * i - j; };
  const auto run = [&](int world, simmpi::Communicator* comm, int rank,
                       double* left_ghost, double* right_ghost,
                       std::uint64_t* copy_launches) {
    Fixture f(Centering::kNode, rank, world, comm);
    auto level0 = f.hierarchy.level_ptr(0);
    if (auto p = level0->local_patch(0)) {
      f.fill(*p, fp);
    }
    if (auto p = level0->local_patch(1)) {
      f.fill(*p, fq);
    }
    RefineAlgorithm alg;
    alg.add(RefineItem{f.var, nullptr});
    auto sched = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
    const std::uint64_t copy0 = tag_count(f.device, LaunchTag::kLocalCopy);
    sched->fill();
    if (copy_launches != nullptr) {
      *copy_launches = tag_count(f.device, LaunchTag::kLocalCopy) - copy0;
    }
    // Patch 0's seam column (node i = 8) is ghost-filled from patch 1;
    // patch 1's from patch 0.
    if (auto p = level0->local_patch(0)) {
      *left_ghost = f.at(*p, 8, 3);
    }
    if (auto p = level0->local_patch(1)) {
      *right_ghost = f.at(*p, 8, 5);
    }
  };

  double serial_left = 0.0;
  double serial_right = 0.0;
  std::uint64_t serial_copies = 0;
  run(1, nullptr, 0, &serial_left, &serial_right, &serial_copies);
  // Each ghost holds the NEIGHBOUR's pre-exchange value, not a chained
  // round-trip of its own.
  EXPECT_EQ(serial_left, fq(8, 3));
  EXPECT_EQ(serial_right, fp(8, 5));
  // Seam aliasing engaged the snapshot stage: gather + apply launches.
  EXPECT_EQ(serial_copies, 2u);

  // The same exchange split across two ranks (where the values travel as
  // packed messages) lands bit-identically: local copies have the same
  // pack-then-apply semantics as remote transfers.
  simmpi::World world(2, simmpi::ideal_network());
  double dist_left = 0.0;
  double dist_right = 0.0;
  world.run([&](simmpi::Communicator& comm) {
    run(2, &comm, comm.rank(), &dist_left, &dist_right, nullptr);
  });
  EXPECT_EQ(dist_left, serial_left);
  EXPECT_EQ(dist_right, serial_right);
}

TEST(TransferPlan, RebuiltScheduleRecompilesPlans) {
  // The plan cache lives and dies with the schedule: rebuilding (what the
  // integrator does after every regrid) compiles fresh plans from the new
  // metadata and executes correctly.
  Fixture f;
  auto level0 = f.hierarchy.level_ptr(0);
  f.fill(*level0->local_patch(0), [](int i, int j) { return i + 100.0 * j; });
  f.fill(*level0->local_patch(1), [](int i, int j) { return i - 100.0 * j; });
  RefineAlgorithm alg;
  alg.add(RefineItem{f.var, nullptr});
  auto first = alg.create_schedule(level0, level0, nullptr,
                                   f.hierarchy.variables(), f.ctx, nullptr,
                                   FillMode::kGhostsOnly);
  first->fill();
  EXPECT_EQ(first->same_level_engine().executions(), 1u);

  auto rebuilt = alg.create_schedule(level0, level0, nullptr,
                                     f.hierarchy.variables(), f.ctx, nullptr,
                                     FillMode::kGhostsOnly);
  EXPECT_TRUE(rebuilt->same_level_engine().plans_compiled());
  EXPECT_EQ(rebuilt->same_level_engine().executions(), 0u);
  rebuilt->fill();
  EXPECT_EQ(rebuilt->same_level_engine().executions(), 1u);
  EXPECT_DOUBLE_EQ(f.at(*level0->local_patch(0), 9, 2), 9 - 100.0 * 2);
}

// ---------------------------------------------------------------------------
// End-to-end launch budget.

TEST(TransferPlan, StepLaunchBudgetOn512SodWithSmallPatches) {
  // The acceptance bar of the compiled-plan redesign: on the 3-level
  // 512^2 Sod with <= 64^2 patches, per-step transfer-path launches are
  // O(messages + 1) per exchange rather than one per (transaction,
  // component, box) — serially: zero pack/unpack launches and at most
  // one local-copy launch per engine execution.
  app::SimulationConfig cfg;
  cfg.problem = "sod";
  cfg.nx = 512;
  cfg.ny = 512;
  cfg.max_levels = 3;
  cfg.regrid_interval = 0;  // isolate the per-step budget
  cfg.max_patch_cells = 64 * 64;
  cfg.min_patch_size = 8;
  app::Simulation sim(cfg, nullptr);
  sim.initialize();
  sim.step();
  const auto& dev = sim.device();
  const std::uint64_t pack0 = dev.launch_count(LaunchTag::kTransferPack);
  const std::uint64_t unpack0 = dev.launch_count(LaunchTag::kTransferUnpack);
  const std::uint64_t copy0 = dev.launch_count(LaunchTag::kLocalCopy);
  sim.step();
  std::size_t patches = 0;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    patches += sim.hierarchy().level(l).patch_count();
  }
  ASSERT_GT(patches, 30u) << "config must produce many patches";
  // Serial: no messages, so no pack/unpack launches at all.
  EXPECT_EQ(dev.launch_count(LaunchTag::kTransferPack) - pack0, 0u);
  EXPECT_EQ(dev.launch_count(LaunchTag::kTransferUnpack) - unpack0, 0u);
  // One step executes 7 refine fill groups x 3 levels (each at most two
  // engine exchanges: same-level + coarse gather) plus 2 syncs: at most
  // one fused local-copy launch each, plus one snapshot-gather launch
  // where node/side seam reads alias writes.
  const std::uint64_t copies = dev.launch_count(LaunchTag::kLocalCopy) - copy0;
  EXPECT_LE(copies, 2u * (7u * 3u * 2u + 2u));
  EXPECT_GT(copies, 0u);
}

}  // namespace
}  // namespace ramr::xfer
