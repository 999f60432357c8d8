#include "app/integrator.hpp"

#include <algorithm>
#include <limits>

#include "geom/coarsen_operators.hpp"
#include "geom/refine_operators.hpp"
#include "vgpu/topology.hpp"

namespace ramr::app {

using xfer::CoarsenItem;
using xfer::FillMode;
using xfer::RefineItem;

LagrangianEulerianIntegrator::LagrangianEulerianIntegrator(
    hier::PatchHierarchy& hierarchy, LevelKernelRunner& runner,
    amr::GriddingAlgorithm& gridding, const Fields& fields,
    xfer::ParallelContext& ctx, ReflectiveBoundary& bc, vgpu::SimClock& clock,
    int regrid_interval)
    : hierarchy_(&hierarchy),
      runner_(&runner),
      gridding_(&gridding),
      fields_(fields),
      ctx_(&ctx),
      bc_(&bc),
      clock_(&clock),
      regrid_interval_(regrid_interval) {
  auto cell_op = std::make_shared<geom::CellConservativeLinearRefine>();
  auto node_op = std::make_shared<geom::NodeLinearRefine>();
  auto side_op = std::make_shared<geom::SideConservativeLinearRefine>();

  // Start-of-step state exchange.
  alg_state_.add(RefineItem{fields_.density0, cell_op});
  alg_state_.add(RefineItem{fields_.energy0, cell_op});
  alg_state_.add(RefineItem{fields_.xvel0, node_op});
  alg_state_.add(RefineItem{fields_.yvel0, node_op});
  // Pressure after each EOS evaluation.
  alg_pressure_.add(RefineItem{fields_.pressure, cell_op});
  // Viscosity before the timestep calculation / acceleration.
  alg_viscosity_.add(RefineItem{fields_.viscosity, cell_op});
  // Before the first advection sweep.
  alg_preadvec_.add(RefineItem{fields_.density1, cell_op});
  alg_preadvec_.add(RefineItem{fields_.energy1, cell_op});
  alg_preadvec_.add(RefineItem{fields_.vol_flux, side_op});
  // Between sweeps (mass fluxes + advanced velocities for advec_mom).
  alg_postcell_.add(RefineItem{fields_.density1, cell_op});
  alg_postcell_.add(RefineItem{fields_.energy1, cell_op});
  alg_postcell_.add(RefineItem{fields_.mass_flux, side_op});
  alg_postcell_.add(RefineItem{fields_.xvel1, node_op});
  alg_postcell_.add(RefineItem{fields_.yvel1, node_op});
  // Fine-to-coarse synchronisation (paper §IV-C: volume-weighted density,
  // mass-weighted energy, node injection for velocities).
  alg_sync_.add(CoarsenItem{fields_.density0,
                            std::make_shared<geom::VolumeWeightedCoarsen>(), -1});
  alg_sync_.add(CoarsenItem{fields_.energy0,
                            std::make_shared<geom::MassWeightedCoarsen>(),
                            fields_.density0});
  alg_sync_.add(CoarsenItem{fields_.xvel0,
                            std::make_shared<geom::NodeInjectionCoarsen>(), -1});
  alg_sync_.add(CoarsenItem{fields_.yvel0,
                            std::make_shared<geom::NodeInjectionCoarsen>(), -1});
}

void LagrangianEulerianIntegrator::initialize(double time) {
  time_ = time;
  gridding_->make_initial_hierarchy(*hierarchy_, time);
  rebuild_schedules();
}

void LagrangianEulerianIntegrator::rebuild_schedules() {
  const auto build = [&](const xfer::RefineAlgorithm& alg,
                         std::vector<std::unique_ptr<xfer::RefineSchedule>>& out) {
    out.clear();
    for (int l = 0; l < hierarchy_->num_levels(); ++l) {
      auto dst = hierarchy_->level_ptr(l);
      auto coarse = l > 0 ? hierarchy_->level_ptr(l - 1) : nullptr;
      out.push_back(alg.create_schedule(dst, dst, coarse,
                                        hierarchy_->variables(), *ctx_, bc_,
                                        FillMode::kGhostsOnly));
    }
  };
  build(alg_state_, sched_state_);
  build(alg_pressure_, sched_pressure_);
  build(alg_viscosity_, sched_viscosity_);
  build(alg_preadvec_, sched_preadvec_);
  build(alg_postcell_, sched_postcell_);

  sched_sync_.clear();
  for (int l = hierarchy_->num_levels() - 1; l >= 1; --l) {
    sched_sync_.push_back(alg_sync_.create_schedule(
        hierarchy_->level_ptr(l - 1), hierarchy_->level_ptr(l),
        hierarchy_->variables(), *ctx_));
  }
}

void LagrangianEulerianIntegrator::count_fill(
    const xfer::RefineSchedule& sched, TransferCounters::Window window,
    bool split) {
  ++xfer_counters_.halo_fills;
  ++xfer_counters_.window[window].fills;
  if (split) {
    ++xfer_counters_.split_fills;
    ++xfer_counters_.window[window].split_fills;
  }
  xfer_counters_.messages_sent += sched.messages_sent_per_fill();
  xfer_counters_.messages_received += sched.messages_received_per_fill();
  xfer_counters_.bytes_sent += sched.bytes_sent_per_fill();
}

void LagrangianEulerianIntegrator::fill_all(
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
    TransferCounters::Window window) {
  // Coarse-to-fine: coarse ghosts must be valid before a finer level's
  // coarse-fill gathers from them.
  for (auto& sched : scheds) {
    sched->fill();
    count_fill(*sched, window, /*split=*/false);
  }
}

bool LagrangianEulerianIntegrator::wide_overlap_active() const {
  // The stage splits pay a launch/occupancy premium per sub-stage; with
  // no remote peers there is no wire to buy back, so a 1-rank world
  // keeps the single-window shape (local-copy time already hides behind
  // EOS at zero extra cost).
  return ctx_->timeline != nullptr && ctx_->wide_overlap && !ctx_->is_serial();
}

void LagrangianEulerianIntegrator::hydro_stage(
    vgpu::LaunchTag tag, const std::function<void()>& body) {
  vgpu::AnnotationScope annotation(clock_, "stage:hydro");
  vgpu::ComponentScope scope(*clock_, "hydro");
  vgpu::LaunchTagScope launch_tag(ctx_->device, tag);
  body();
}

void LagrangianEulerianIntegrator::fill_window(
    TransferCounters::Window window,
    std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds, Overlap mode,
    const StageFn& stage) {
  static constexpr const char* kWindowAnnotations
      [TransferCounters::kWindowCount] = {"window:state", "window:pressure",
                                          "window:viscosity",
                                          "window:preadvec", "window:postcell"};
  vgpu::AnnotationScope annotation(clock_, kWindowAnnotations[window]);
  // The timeline's overlap_seconds_saved, and the busy seconds of the
  // comm kernels, wire legs and both PCIe copy engines: everything the
  // exchange occupies off the host lane (both 0 without a timeline).
  // Read-only: the Timeline creates these lanes at construction.
  const auto probe = [tl = ctx_->timeline]() -> std::array<double, 2> {
    if (tl == nullptr) {
      return {0.0, 0.0};
    }
    return {tl->overlap_seconds_saved(),
            tl->busy(tl->lane("comm")) + tl->busy(tl->lane("net")) +
                tl->busy(tl->lane("d2h")) + tl->busy(tl->lane("h2d"))};
  };
  const std::array<double, 2> before = probe();
  const auto sweep = [&](hydro::SweepPart part, vgpu::LaunchTag tag) {
    hydro_stage(tag, [&] { stage(part); });
  };
  if (mode == Overlap::kNone) {
    {
      vgpu::ComponentScope scope(*clock_, "boundary");
      fill_all(scheds, window);
    }
    sweep(hydro::SweepPart::kAll, vgpu::LaunchTag::kHydro);
  } else {
    {
      // Every level's same-level exchange starts here: its begin phase
      // only reads that level's interiors and writes that level's ghosts
      // (the wide-overlap early gather reads only the coarser level's
      // strictly-interior data), so the begins are mutually independent
      // and the wire time of all levels' messages is in flight together.
      vgpu::ComponentScope scope(*clock_, "boundary");
      for (auto& sched : scheds) {
        sched->fill_begin();
      }
    }
    // The ghost-free part of the stage runs on the host lane while the
    // exchange's wire legs ride the comm/net lanes.
    sweep(mode == Overlap::kSplit ? hydro::SweepPart::kInterior
                                  : hydro::SweepPart::kAll,
          vgpu::LaunchTag::kHydro);
    {
      // Finish coarse-to-fine, like fill_all: a level's coarse gather
      // reads the coarser level's ghosts, which its (earlier) finish
      // completed.
      vgpu::ComponentScope scope(*clock_, "boundary");
      for (auto& sched : scheds) {
        sched->fill_finish();
        count_fill(*sched, window, /*split=*/true);
      }
    }
    if (mode == Overlap::kSplit) {
      // Boundary rind: the shell cells whose stencils read the ghosts
      // the finish just filled.
      sweep(hydro::SweepPart::kRind, vgpu::LaunchTag::kRind);
    }
  }
  const std::array<double, 2> after = probe();
  xfer_counters_.window[window].overlap_seconds_saved += after[0] - before[0];
  xfer_counters_.window[window].comm_seconds += after[1] - before[1];
}

double LagrangianEulerianIntegrator::advance() {
  hier::PatchHierarchy& h = *hierarchy_;
  const int levels = h.num_levels();
  using Window = TransferCounters::Window;
  using hydro::SweepPart;

  // One fixed sequence of fill windows; only each window's overlap mode
  // depends on the run. With a timeline attached (async-overlap runs)
  // the state exchange overlaps the pointwise EOS stage. Under wide
  // overlap every stencil window also splits around the INTERIOR sweep
  // of its consumer stage (hydro::SweepPart), with the boundary rind
  // swept after the exchange finished. Otherwise each fill precedes its
  // consumer stage whole. The launches and their inputs are identical in
  // every mode (packs happen before any overlapped compute; interior
  // sweeps read no in-flight ghost or seam data; rind sweeps read
  // finished ghosts exactly as a post-fill stage would), so the fields
  // are bit-identical; only the modeled completion time drops
  // (docs/async_overlap.md).
  const bool wide = wide_overlap_active();
  const Overlap state_mode =
      ctx_->timeline != nullptr ? Overlap::kWhole : Overlap::kNone;
  const Overlap stencil_mode = wide ? Overlap::kSplit : Overlap::kNone;
  const Overlap viscosity_mode = wide ? Overlap::kWhole : Overlap::kNone;
  LevelKernelRunner& run = *runner_;
  // Runs `body(level, geometry)` on every level, coarse to fine.
  const auto each_level = [&](auto&& body) {
    for (int l = 0; l < levels; ++l) {
      body(h.level(l), geom_of(h.level(l)));
    }
  };

  // --- EOS + viscosity + timestep --------------------------------------
  // State window: EOS is pointwise, so the whole stage is its own
  // interior. (Keeping this window separate from the pressure window
  // measures strictly better than fusing them: the two exchanges' chains
  // share the comm lane and the copy engines, so beginning the second
  // fill early only delays the first one's finish.)
  fill_window(Window::kState, sched_state_, state_mode, [&](SweepPart) {
    each_level([&](auto& l, const auto& g) {
      run.ideal_gas(l, g, /*predict=*/false);
    });
  });
  fill_window(Window::kPressure, sched_pressure_, stencil_mode,
              [&](SweepPart part) {
                each_level([&](auto& l, const auto& g) {
                  run.viscosity(l, g, part);
                });
              });
  // Viscosity window: neither the timestep reduction (allreduce
  // included) nor the Lagrangian predictor reads any ghost, so the
  // viscosity exchange can stay in flight across BOTH and finish just
  // before the acceleration stage that consumes viscosity ghosts.
  double dt = std::numeric_limits<double>::infinity();
  fill_window(Window::kViscosity, sched_viscosity_, viscosity_mode,
              [&](SweepPart) {
                {
                  vgpu::AnnotationScope annotation(clock_, "stage:timestep");
                  vgpu::ComponentScope scope(*clock_, "timestep");
                  each_level([&](auto& l, const auto& g) {
                    dt = std::min(dt, run.compute_dt(l, g));
                  });
                  if (ctx_->comm != nullptr) {
                    dt = ctx_->comm->allreduce(dt, simmpi::ReduceOp::kMin);
                  }
                }
                each_level([&](auto& l, const auto& g) {
                  run.pdv(l, g, dt, /*predict=*/true);
                  run.ideal_gas(l, g, /*predict=*/true);
                });
              });

  // --- Lagrangian step -------------------------------------------------
  // Second pressure window: acceleration, then the corrector and flux
  // sweeps, whose velocity reads chain within the acceleration's interior
  // (depths in hydro/kernels.cpp) and which read no in-flight ghost. Each
  // sub-stage sweeps every level before the next one starts. Modeled
  // time sums the charges in launch order, so this order is part of the
  // committed modeled results.
  fill_window(Window::kPressure, sched_pressure_, stencil_mode,
              [&](SweepPart part) {
                each_level([&](auto& l, const auto& g) {
                  run.accelerate(l, g, dt, part);
                });
                each_level([&](auto& l, const auto& g) {
                  run.pdv(l, g, dt, /*predict=*/false, part);
                });
                each_level([&](auto& l, const auto& g) {
                  run.flux_calc(l, g, dt, part);
                });
              });

  // --- Advection (directional split, alternating order) ----------------
  const bool x_first = (step_count_ % 2) == 0;
  fill_window(Window::kPreAdvec, sched_preadvec_, stencil_mode,
              [&](SweepPart part) {
                each_level([&](auto& l, const auto& g) {
                  run.advec_cell(l, g, x_first, 1, part);
                });
              });
  fill_window(Window::kPostCell, sched_postcell_, stencil_mode,
              [&](SweepPart part) {
                each_level([&](auto& l, const auto& g) {
                  run.advec_mom_both(l, g, x_first, 1, part);
                });
              });
  hydro_stage(vgpu::LaunchTag::kHydro, [&] {
    each_level([&](auto& l, const auto& g) {
      run.advec_cell(l, g, !x_first, 2);
    });
  });
  fill_window(Window::kPostCell, sched_postcell_, stencil_mode,
              [&](SweepPart part) {
                each_level([&](auto& l, const auto& g) {
                  run.advec_mom_both(l, g, !x_first, 2, part);
                });
              });
  hydro_stage(vgpu::LaunchTag::kHydro, [&] {
    each_level([&](auto& l, const auto& g) { run.reset_field(l, g); });
  });

  // --- Synchronisation: fine solution replaces coarse -------------------
  {
    vgpu::AnnotationScope annotation(clock_, "sync");
    vgpu::ComponentScope scope(*clock_, "sync");
    for (auto& sched : sched_sync_) {
      sched->coarsen_data();
      ++xfer_counters_.halo_fills;
      xfer_counters_.messages_sent += sched->messages_sent_per_sync();
      xfer_counters_.messages_received += sched->messages_received_per_sync();
      xfer_counters_.bytes_sent += sched->bytes_sent_per_sync();
    }
  }

  time_ += dt;
  last_dt_ = dt;
  ++step_count_;

  // --- Regridding -------------------------------------------------------
  if (regrid_interval_ > 0 && (step_count_ % regrid_interval_) == 0 &&
      h.max_levels() > 1) {
    vgpu::AnnotationScope annotation(clock_, "regrid");
    vgpu::ComponentScope scope(*clock_, "regrid");
    // Refresh halos so tagging and solution transfer see current data.
    fill_all(sched_state_, TransferCounters::Window::kState);
    if (ctx_->topology != nullptr) {
      // Feed the observed per-device costs forward: the rebuilt levels'
      // patch-to-device assignment adapts to what the devices actually
      // did since the last regrid (amr::BalanceMethod::kMeasured).
      gridding_->set_measured_costs(measure_device_costs());
    }
    gridding_->regrid(h, time_);
    rebuild_schedules();
  }
  return dt;
}

std::vector<amr::MeasuredDeviceCosts>
LagrangianEulerianIntegrator::measure_device_costs() {
  vgpu::Topology* topo = ctx_->topology;
  const int n = topo->device_count();
  std::vector<amr::MeasuredDeviceCosts> costs(
      static_cast<std::size_t>(n));
  gpu_busy_snapshot_.resize(static_cast<std::size_t>(n), 0.0);
  vgpu::Timeline* tl = ctx_->timeline;
  for (int d = 0; d < n; ++d) {
    double busy = 0.0;
    if (tl != nullptr) {
      busy = tl->busy(tl->lane(vgpu::Topology::gpu_lane_name(d)));
    }
    costs[static_cast<std::size_t>(d)].busy_seconds =
        busy - gpu_busy_snapshot_[static_cast<std::size_t>(d)];
    gpu_busy_snapshot_[static_cast<std::size_t>(d)] = busy;
  }
  for (int l = 0; l < hierarchy_->num_levels(); ++l) {
    for (const auto& p : hierarchy_->level(l).local_patches()) {
      const int d = p->device_ordinal();
      if (d >= 0 && d < n) {
        costs[static_cast<std::size_t>(d)].cells += p->box().size();
      }
    }
  }
  return costs;
}

hydro::FieldSummary LagrangianEulerianIntegrator::composite_summary() {
  hydro::FieldSummary total;
  hier::PatchHierarchy& h = *hierarchy_;
  for (int l = 0; l < h.num_levels(); ++l) {
    hier::PatchLevel& level = h.level(l);
    const hydro::CellGeom g = geom_of(level);
    // Cells covered by the finer level don't count (their fine values do).
    mesh::BoxList covered;
    if (h.has_level(l + 1)) {
      for (const mesh::Box& b : h.level(l + 1).boxes().boxes()) {
        covered.push_back(b.coarsen(h.level(l + 1).ratio_to_coarser()));
      }
    }
    for (const auto& patch : level.local_patches()) {
      mesh::BoxList uncovered(patch->box());
      uncovered.remove_intersections(covered);
      for (const mesh::Box& piece : uncovered.boxes()) {
        const hydro::FieldSummary s = runner_->field_summary(*patch, g, piece);
        total.mass += s.mass;
        total.internal_energy += s.internal_energy;
        total.kinetic_energy += s.kinetic_energy;
      }
    }
  }
  if (ctx_->comm != nullptr) {
    total.mass = ctx_->comm->allreduce(total.mass, simmpi::ReduceOp::kSum);
    total.internal_energy =
        ctx_->comm->allreduce(total.internal_energy, simmpi::ReduceOp::kSum);
    total.kinetic_energy =
        ctx_->comm->allreduce(total.kinetic_energy, simmpi::ReduceOp::kSum);
  }
  return total;
}

}  // namespace ramr::app
