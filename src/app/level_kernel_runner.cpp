#include "app/level_kernel_runner.hpp"

#include <limits>

#include "pdat/cuda/cuda_data.hpp"

namespace ramr::app {

using pdat::cuda::CudaData;

util::View LevelKernelRunner::view(hier::Patch& p, int id, int comp,
                                   int plane) const {
  return p.typed_data<CudaData>(id).device_view(comp, plane);
}

namespace {

/// Builds the per-patch argument span for a fused launch: one entry per
/// group patch, in group (= segment) order.
template <typename Arg, typename Fn>
std::vector<Arg> gather_args(const std::vector<hier::Patch*>& patches,
                             Fn&& make) {
  std::vector<Arg> args;
  args.reserve(patches.size());
  for (hier::Patch* patch : patches) {
    args.push_back(make(*patch));
  }
  return args;
}

}  // namespace

double LevelKernelRunner::compute_dt(hier::PatchLevel& level,
                                     const hydro::CellGeom& g) {
  double dt = std::numeric_limits<double>::max();
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::CalcDtPatch>(patches, [&](hier::Patch& p) {
          return hydro::CalcDtPatch{view(p, f_.density0),
                                    view(p, f_.soundspeed),
                                    view(p, f_.viscosity), view(p, f_.xvel0),
                                    view(p, f_.yvel0)};
        });
    dt = std::min(dt, hydro::calc_dt_batched(dev, stream, boxes, g, args));
  });
  return dt;
}

void LevelKernelRunner::ideal_gas(hier::PatchLevel& level,
                                  const hydro::CellGeom&, bool predict,
                                  hydro::SweepPart part) {
  const int density = predict ? f_.density1 : f_.density0;
  const int energy = predict ? f_.energy1 : f_.energy0;
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::IdealGasPatch>(patches, [&](hier::Patch& p) {
          return hydro::IdealGasPatch{view(p, density), view(p, energy),
                                      view(p, f_.pressure),
                                      view(p, f_.soundspeed)};
        });
    hydro::ideal_gas_batched(dev, stream, boxes, args, part, phys_.gamma);
  });
}

void LevelKernelRunner::viscosity(hier::PatchLevel& level,
                                  const hydro::CellGeom& g,
                                  hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::ViscosityPatch>(patches, [&](hier::Patch& p) {
          return hydro::ViscosityPatch{view(p, f_.density0),
                                       view(p, f_.pressure),
                                       view(p, f_.viscosity),
                                       view(p, f_.xvel0), view(p, f_.yvel0)};
        });
    hydro::viscosity_batched(dev, stream, boxes, g, args, part);
  });
}

void LevelKernelRunner::pdv(hier::PatchLevel& level, const hydro::CellGeom& g,
                            double dt, bool predict,
                            hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args = gather_args<hydro::PdvPatch>(patches, [&](hier::Patch& p) {
      return hydro::PdvPatch{view(p, f_.xvel0), view(p, f_.yvel0),
                             view(p, f_.xvel1), view(p, f_.yvel1),
                             view(p, f_.density0), view(p, f_.density1),
                             view(p, f_.energy0), view(p, f_.energy1),
                             view(p, f_.pressure), view(p, f_.viscosity)};
    });
    hydro::pdv_batched(dev, stream, boxes, g, dt, predict, args, part);
  });
}

void LevelKernelRunner::accelerate(hier::PatchLevel& level,
                                   const hydro::CellGeom& g, double dt,
                                   hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::AcceleratePatch>(patches, [&](hier::Patch& p) {
          return hydro::AcceleratePatch{
              view(p, f_.density0), view(p, f_.pressure), view(p, f_.viscosity),
              view(p, f_.xvel0), view(p, f_.yvel0), view(p, f_.xvel1),
              view(p, f_.yvel1)};
        });
    hydro::accelerate_batched(dev, stream, boxes, g, dt, args, part, phys_.gx,
                              phys_.gy);
  });
}

void LevelKernelRunner::flux_calc(hier::PatchLevel& level,
                                  const hydro::CellGeom& g, double dt,
                                  hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::FluxCalcPatch>(patches, [&](hier::Patch& p) {
          return hydro::FluxCalcPatch{view(p, f_.xvel0), view(p, f_.yvel0),
                                      view(p, f_.xvel1), view(p, f_.yvel1),
                                      view(p, f_.vol_flux, 0),
                                      view(p, f_.vol_flux, 1)};
        });
    hydro::flux_calc_batched(dev, stream, boxes, g, dt, args, part);
  });
}

void LevelKernelRunner::advec_cell(hier::PatchLevel& level,
                                   const hydro::CellGeom& g, bool x_direction,
                                   int sweep_number, hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::AdvecCellPatch>(patches, [&](hier::Patch& p) {
          return hydro::AdvecCellPatch{
              view(p, f_.density1), view(p, f_.energy1),
              view(p, f_.vol_flux, 0), view(p, f_.vol_flux, 1),
              view(p, f_.mass_flux, 0), view(p, f_.mass_flux, 1),
              view(p, f_.pre_vol), view(p, f_.post_vol),
              view(p, f_.ener_flux, x_direction ? 0 : 1)};
        });
    hydro::advec_cell_batched(dev, stream, boxes, g, x_direction, sweep_number,
                              args, part);
  });
}

void LevelKernelRunner::advec_mom_both(hier::PatchLevel& level,
                                       const hydro::CellGeom& g,
                                       bool x_direction, int sweep_number,
                                       hydro::SweepPart part) {
  const int mom_sweep = (x_direction ? 1 : 2) + 2 * (sweep_number - 1);
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto shared =
        gather_args<hydro::AdvecMomSharedPatch>(patches, [&](hier::Patch& p) {
          return hydro::AdvecMomSharedPatch{
              view(p, f_.density1), view(p, f_.vol_flux, 0),
              view(p, f_.vol_flux, 1), view(p, f_.mass_flux, 0),
              view(p, f_.mass_flux, 1), view(p, f_.node_flux),
              view(p, f_.node_mass_post), view(p, f_.node_mass_pre),
              view(p, f_.pre_vol), view(p, f_.post_vol)};
        });
    hydro::advec_mom_shared_batched(dev, stream, boxes, g, mom_sweep, shared,
                                    part);

    // Both components in one fused launch per sub-stage: entries (and
    // boxes) for the x-velocity first, then the y-velocity.
    std::vector<mesh::Box> both_boxes(boxes);
    both_boxes.insert(both_boxes.end(), boxes.begin(), boxes.end());
    std::vector<hydro::AdvecMomVelPatch> vels;
    vels.reserve(2 * boxes.size());
    for (const bool x_velocity : {true, false}) {
      for (hier::Patch* patch : patches) {
        hier::Patch& p = *patch;
        vels.push_back(hydro::AdvecMomVelPatch{
            view(p, x_velocity ? f_.xvel1 : f_.yvel1),
            view(p, f_.mom_flux, 0, x_velocity ? 0 : 1), view(p, f_.node_flux),
            view(p, f_.node_mass_post), view(p, f_.node_mass_pre)});
      }
    }
    hydro::advec_mom_velocity_batched(dev, stream, both_boxes, g, x_direction,
                                      vels, part);
  });
}

void LevelKernelRunner::reset_field(hier::PatchLevel& level,
                                    const hydro::CellGeom&,
                                    hydro::SweepPart part) {
  for_groups(level, [&](vgpu::Device& dev, vgpu::Stream& stream,
                        const std::vector<hier::Patch*>& patches,
                        const std::vector<mesh::Box>& boxes) {
    const auto args =
        gather_args<hydro::ResetFieldPatch>(patches, [&](hier::Patch& p) {
          return hydro::ResetFieldPatch{
              view(p, f_.density0), view(p, f_.density1), view(p, f_.energy0),
              view(p, f_.energy1), view(p, f_.xvel0), view(p, f_.xvel1),
              view(p, f_.yvel0), view(p, f_.yvel1)};
        });
    hydro::reset_field_batched(dev, stream, boxes, args, part);
  });
}

hydro::FieldSummary LevelKernelRunner::field_summary(hier::Patch& p,
                                                     const hydro::CellGeom& g,
                                                     const mesh::Box& region) {
  return hydro::field_summary(*device_, stream_, region, g,
                              view(p, f_.density0), view(p, f_.energy0),
                              view(p, f_.xvel0), view(p, f_.yvel0));
}

}  // namespace ramr::app
