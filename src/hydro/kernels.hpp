// The CloverLeaf explicit hydrodynamics kernels (2-D compressible Euler
// on a staggered grid), written as data-parallel device kernels: one
// thread per output element, exactly as CleverLeaf's CUDA port launches
// them (paper §IV-C).
//
// Scheme summary (Lagrangian step + directional-split advection):
//   ideal_gas   : p = (gamma-1) rho e,  c^2 = gamma p / rho
//   viscosity   : Wilkins-style artificial viscous pressure q
//   calc_dt     : CFL / velocity / divergence timestep limits
//   pdv         : compression work (predictor dt/2, corrector dt)
//   accelerate  : nodal velocity update from pressure + q gradients
//   flux_calc   : face volume fluxes from time-centred velocities
//   advec_cell  : van Leer second-order donor-cell advection (rho, e)
//   advec_mom   : momentum advection on the staggered nodes
//   reset_field : copy the time-advanced fields back to level n
//
// All kernels index in global (level) coordinates through ArrayView2D;
// `box` is the patch interior cell region unless noted. Ghost width 2 is
// assumed (CloverLeaf's halo depth).
#pragma once

#include <span>

#include "mesh/box.hpp"
#include "util/array_view.hpp"
#include "vgpu/device.hpp"

namespace ramr::hydro {

/// Ideal-gas constants and numerical fuzz, as in CloverLeaf.
struct Constants {
  static constexpr double gamma = 1.4;
  static constexpr double g_small = 1.0e-16;
  static constexpr double g_big = 1.0e+21;
  static constexpr double dtc_safe = 0.7;  ///< CFL safety factor
  static constexpr double dtu_safe = 0.5;
  static constexpr double dtv_safe = 0.5;
  static constexpr double dtdiv_safe = 0.7;
};

/// Runtime physics parameters a scenario may override (cfg::ScenarioSpec):
/// the EOS gamma and a constant body acceleration. The defaults select
/// the exact historical arithmetic (compile-time gamma, no gravity adds),
/// so default-constructed Physics is bit-identical to the pre-scenario
/// kernels.
struct Physics {
  double gamma = Constants::gamma;
  double gx = 0.0;  ///< body acceleration, x component
  double gy = 0.0;  ///< body acceleration, y component
};

/// Uniform-cell geometry of one patch's level.
struct CellGeom {
  double dx = 0.0;
  double dy = 0.0;
  double volume() const { return dx * dy; }
  double xarea() const { return dy; }
  double yarea() const { return dx; }
};

using View = util::View;

// ---------------------------------------------------------------------------
// Interior / rind stage decomposition.
//
// Every batched stage can run over one of three index-space parts, so a
// halo exchange can hide behind the stage instead of preceding it:
//
//   kAll       the full stage (the default; one fused launch per
//              sub-stage, exactly the pre-split behaviour),
//   kInterior  only the cells/faces/nodes of each patch at least the
//              sub-stage's rind depth away from the patch's cell
//              boundary — by construction these sweeps read no ghost
//              data of any exchanged variable, no seam node/side line a
//              same-level exchange rewrites, and no element an earlier
//              sub-stage computes outside ITS interior, so they may run
//              while the exchange's messages are on the wire,
//   kRind      the exact complement (up to four shell pieces per patch
//              per sub-stage), run after the exchange finished.
//
// kInterior followed by kRind covers every element of kAll exactly once
// with the same per-element arithmetic and a read order equivalent to
// the synchronous fill-then-stage schedule, so the split is bit-identical
// to kAll. Per-sub-stage rind depths are derived from the stencils (and
// the in-place update hazards of the advection stages) in kernels.cpp;
// a patch thinner than 2*depth simply has an empty interior and a rind
// covering everything. Empty parts launch nothing.
enum class SweepPart { kAll, kInterior, kRind };

// ---------------------------------------------------------------------------
// Batched (fused per-level) kernel forms.
//
// Every stage kernel has one entry, a batched form taking parallel spans
// of per-patch interior cell boxes and per-patch view bundles (one entry
// per patch, indexed by the fused launch's segment argument id). A
// batched call issues ONE fused launch per kernel sub-stage and part —
// one launch overhead and an occupancy ramp computed from the part's
// total thread count. A single patch is a one-element span. Geometry
// and scalar arguments (dt, sweep selectors) are uniform across a level.

/// Per-patch views for ideal_gas.
struct IdealGasPatch {
  View density, energy, pressure, soundspeed;
};
/// Per-patch views for viscosity.
struct ViscosityPatch {
  View density0, pressure, viscosity, xvel0, yvel0;
};
/// Per-patch views for calc_dt.
struct CalcDtPatch {
  View density0, soundspeed, viscosity, xvel0, yvel0;
};
/// Per-patch views for pdv.
struct PdvPatch {
  View xvel0, yvel0, xvel1, yvel1, density0, density1, energy0, energy1,
      pressure, viscosity;
};
/// Per-patch views for accelerate.
struct AcceleratePatch {
  View density0, pressure, viscosity, xvel0, yvel0, xvel1, yvel1;
};
/// Per-patch views for flux_calc.
struct FluxCalcPatch {
  View xvel0, yvel0, xvel1, yvel1, vol_flux_x, vol_flux_y;
};
/// Per-patch views for advec_cell.
struct AdvecCellPatch {
  View density1, energy1, vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y,
      pre_vol, post_vol, ener_flux;
};
/// Per-patch views of the component-INDEPENDENT advec_mom work: sweep
/// volumes, node fluxes and node masses are identical for both velocity
/// components of one sweep, so they are computed once per sweep.
struct AdvecMomSharedPatch {
  View density1, vol_flux_x, vol_flux_y, mass_flux_x, mass_flux_y, node_flux,
      node_mass_post, node_mass_pre, pre_vol, post_vol;
};
/// Per-(patch, velocity component) views of the component-specific
/// advec_mom work (monotonic momentum flux + velocity update). Each
/// component writes its own mom_flux plane, so entries for BOTH
/// components can ride one fused launch.
struct AdvecMomVelPatch {
  View vel1, mom_flux, node_flux, node_mass_post, node_mass_pre;
};
/// Per-patch views for reset_field.
struct ResetFieldPatch {
  View density0, density1, energy0, energy1, xvel0, xvel1, yvel0, yvel1;
};

/// `gamma` overrides the ideal-gas ratio of specific heats per scenario
/// (cfg::ScenarioSpec::gamma); the default performs the exact arithmetic
/// of the historical compile-time constant.
void ideal_gas_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const mesh::Box> boxes,
                       std::span<const IdealGasPatch> p,
                       SweepPart part = SweepPart::kAll,
                       double gamma = Constants::gamma);
void viscosity_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const mesh::Box> boxes, const CellGeom& g,
                       std::span<const ViscosityPatch> p,
                       SweepPart part = SweepPart::kAll);
/// One fused min-reduction over every patch interior with a SINGLE
/// scalar D2H readback for the whole span (per level, not per patch).
double calc_dt_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const mesh::Box> boxes, const CellGeom& g,
                       std::span<const CalcDtPatch> p);
/// `predict` uses dt/2 and level-n velocities only.
void pdv_batched(vgpu::Device& dev, vgpu::Stream& s,
                 std::span<const mesh::Box> boxes, const CellGeom& g, double dt,
                 bool predict, std::span<const PdvPatch> p,
                 SweepPart part = SweepPart::kAll);
/// `gx`/`gy` add a constant body acceleration (the gravity source of the
/// Rayleigh-Taylor scenario). Exactly (0, 0) skips the extra update
/// entirely, so gravity-free runs stay bit-identical to the historical
/// kernel (no `x + 0.0` rounding of signed zeros).
void accelerate_batched(vgpu::Device& dev, vgpu::Stream& s,
                        std::span<const mesh::Box> boxes, const CellGeom& g,
                        double dt, std::span<const AcceleratePatch> p,
                        SweepPart part = SweepPart::kAll, double gx = 0.0,
                        double gy = 0.0);
void flux_calc_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const mesh::Box> boxes, const CellGeom& g,
                       double dt, std::span<const FluxCalcPatch> p,
                       SweepPart part = SweepPart::kAll);
/// One directional sweep of cell-centred advection (density1, energy1).
/// `sweep_number` is 1 for the first sweep of the step, 2 for the second;
/// `x_direction` selects the sweep axis.
void advec_cell_batched(vgpu::Device& dev, vgpu::Stream& s,
                        std::span<const mesh::Box> boxes, const CellGeom& g,
                        bool x_direction, int sweep_number,
                        std::span<const AdvecCellPatch> p,
                        SweepPart part = SweepPart::kAll);
/// Component-independent sub-stages (volumes, node flux, node masses) of
/// one momentum sweep: ONE run serves both velocity components.
/// `mom_sweep` = direction + 2*(sweep_number-1) as in CloverLeaf.
void advec_mom_shared_batched(vgpu::Device& dev, vgpu::Stream& s,
                              std::span<const mesh::Box> boxes,
                              const CellGeom& g, int mom_sweep,
                              std::span<const AdvecMomSharedPatch> p,
                              SweepPart part = SweepPart::kAll);
/// Component-specific sub-stages (momentum flux + velocity update), one
/// fused launch per sub-stage over ALL entries: pass 2P entries (x- then
/// y-velocity, with `boxes` repeated) to advance both components per
/// launch — the entries write disjoint arrays (own vel1, own mom_flux
/// plane), so fusing them is race-free and bit-identical to running the
/// components back to back.
void advec_mom_velocity_batched(vgpu::Device& dev, vgpu::Stream& s,
                                std::span<const mesh::Box> boxes,
                                const CellGeom& g, bool x_direction,
                                std::span<const AdvecMomVelPatch> p,
                                SweepPart part = SweepPart::kAll);
void reset_field_batched(vgpu::Device& dev, vgpu::Stream& s,
                         std::span<const mesh::Box> boxes,
                         std::span<const ResetFieldPatch> p,
                         SweepPart part = SweepPart::kAll);

/// Total mass / internal energy / kinetic energy over `box` (device
/// reduction; diagnostics and conservation tests).
struct FieldSummary {
  double mass = 0.0;
  double internal_energy = 0.0;
  double kinetic_energy = 0.0;
};
FieldSummary field_summary(vgpu::Device& dev, vgpu::Stream& s,
                           const mesh::Box& box, const CellGeom& g,
                           View density0, View energy0, View xvel0, View yvel0);

}  // namespace ramr::hydro
