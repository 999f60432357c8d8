// Per-level kernel driver: the route every CloverLeaf stage runs
// through. A stage gathers every local patch's views and geometry once
// and issues ONE fused launch per kernel sub-stage per level
// (vgpu::Device::launch_batched). A level with P patches pays one launch
// overhead per sub-stage and an occupancy ramp computed from the level's
// total thread count — the batched-launch approach of GPU AMR frameworks
// (GAMER, Uintah) applied to the paper's resident step.
#pragma once

#include <algorithm>
#include <vector>

#include "app/fields.hpp"
#include "hier/patch_level.hpp"
#include "hydro/kernels.hpp"
#include "vgpu/topology.hpp"

namespace ramr::app {

/// Uniform cell geometry of `level`'s patches.
inline hydro::CellGeom geom_of(const hier::PatchLevel& level) {
  return hydro::CellGeom{level.dx()[0], level.dx()[1]};
}

/// Fused per-level forms of the CloverLeaf timestep stages.
class LevelKernelRunner {
 public:
  /// `physics` carries the scenario's EOS gamma and gravity; the default
  /// keeps the historical arithmetic bit-identical. With a multi-device
  /// `topology`, every stage issues one fused launch per device over
  /// that device's patches (grouped by the data's actual residency), on
  /// the device's "gpu<i>" timeline lane — devices compute their groups
  /// concurrently and the stage completes at the slowest device's join.
  LevelKernelRunner(vgpu::Device& device, const Fields& fields,
                    const hydro::Physics& physics = {},
                    vgpu::Topology* topology = nullptr)
      : device_(&device), stream_(device, "hydro"), f_(fields),
        phys_(physics), topology_(topology) {}

  /// Minimum stable dt over the level: one fused reduction and ONE
  /// scalar D2H readback per level.
  double compute_dt(hier::PatchLevel& level, const hydro::CellGeom& g);

  /// Every stage can sweep the full level (kAll), only the patch
  /// interiors (kInterior — safe while a halo exchange is in flight), or
  /// the complementary boundary rind (kRind — run after the exchange
  /// finished); see hydro::SweepPart.
  void ideal_gas(hier::PatchLevel& level, const hydro::CellGeom& g,
                 bool predict, hydro::SweepPart part = hydro::SweepPart::kAll);
  void viscosity(hier::PatchLevel& level, const hydro::CellGeom& g,
                 hydro::SweepPart part = hydro::SweepPart::kAll);
  void pdv(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
           bool predict, hydro::SweepPart part = hydro::SweepPart::kAll);
  void accelerate(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
                  hydro::SweepPart part = hydro::SweepPart::kAll);
  void flux_calc(hier::PatchLevel& level, const hydro::CellGeom& g, double dt,
                 hydro::SweepPart part = hydro::SweepPart::kAll);
  void advec_cell(hier::PatchLevel& level, const hydro::CellGeom& g,
                  bool x_direction, int sweep_number,
                  hydro::SweepPart part = hydro::SweepPart::kAll);
  /// Both velocity components of one momentum sweep in six fused
  /// launches: the component-independent volumes / node fluxes / node
  /// masses run once for both, and the per-component momentum flux +
  /// velocity update fuse both components into one launch each (each
  /// component writes its own vel1 and mom_flux plane, so the fusion is
  /// race-free).
  void advec_mom_both(hier::PatchLevel& level, const hydro::CellGeom& g,
                      bool x_direction, int sweep_number,
                      hydro::SweepPart part = hydro::SweepPart::kAll);
  void reset_field(hier::PatchLevel& level, const hydro::CellGeom& g,
                   hydro::SweepPart part = hydro::SweepPart::kAll);

  /// Mass / internal / kinetic energy over `region` of one patch: a
  /// device reduction on the runner's own device and stream (composite
  /// conservation diagnostics, outside the step).
  hydro::FieldSummary field_summary(hier::Patch& p, const hydro::CellGeom& g,
                                    const mesh::Box& region);

 private:
  util::View view(hier::Patch& p, int id, int comp = 0, int plane = 0) const;

  /// Calls `fn(device, stream, patches, boxes)` once per device group of
  /// the level's local patches. Single-device (or no topology): one call
  /// on the runner's own device and stream. Multi-device: groups by each
  /// patch's device ordinal; with a timeline each group's lane forks from
  /// the caller's cursor (the host issues a stage only after the previous
  /// one joined) and the stage joins back at the slowest group's
  /// completion.
  template <typename Fn>
  void for_groups(hier::PatchLevel& level, Fn&& fn) {
    if (topology_ == nullptr || topology_->device_count() <= 1) {
      std::vector<hier::Patch*> patches;
      std::vector<mesh::Box> boxes;
      patches.reserve(level.local_patches().size());
      boxes.reserve(level.local_patches().size());
      for (const auto& p : level.local_patches()) {
        patches.push_back(p.get());
        boxes.push_back(p->box());
      }
      fn(*device_, stream_, patches, boxes);
      return;
    }
    vgpu::Timeline* tl = device_->timeline();
    double join = 0.0;
    for (int d = 0; d < topology_->device_count(); ++d) {
      std::vector<hier::Patch*> patches;
      std::vector<mesh::Box> boxes;
      for (const auto& p : level.local_patches()) {
        if (p->device_ordinal() == d) {
          patches.push_back(p.get());
          boxes.push_back(p->box());
        }
      }
      if (patches.empty()) {
        continue;
      }
      vgpu::Device& dev = topology_->device(d);
      vgpu::Stream stream(dev, "hydro");
      if (tl != nullptr) {
        const int lane = tl->lane(vgpu::Topology::gpu_lane_name(d));
        tl->advance(lane, tl->now(tl->active_lane()));
        stream.bind_lane(lane);
      }
      fn(dev, stream, patches, boxes);
      if (tl != nullptr) {
        vgpu::Event done;
        done.record(stream);
        join = std::max(join, done.timestamp());
      }
    }
    if (tl != nullptr) {
      tl->advance(tl->active_lane(), join);
    }
  }

  vgpu::Device* device_;
  vgpu::Stream stream_;
  Fields f_;
  hydro::Physics phys_;
  vgpu::Topology* topology_ = nullptr;
};

}  // namespace ramr::app
