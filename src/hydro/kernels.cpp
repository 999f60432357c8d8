#include "hydro/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace ramr::hydro {

using mesh::Box;

namespace {

double sign(double magnitude, double s) {
  return s >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

/// Kernel cost from per-thread flop count and the number of doubles the
/// kernel logically reads+writes per thread. The factor ~3 on top of
/// 8 bytes/double calibrates for the imperfect reuse and coalescing of
/// real stencil kernels, which sustain ~1/3 of STREAM bandwidth on both
/// the K20x and the host processors (so backend ratios are unaffected).
constexpr double kEffectiveBytesPerDouble = 24.0;

constexpr vgpu::KernelCost hydro_cost(double flops, double doubles) {
  return vgpu::KernelCost{flops, doubles * kEffectiveBytesPerDouble};
}

/// One fused launch's segments for one sub-stage and sweep part.
///
/// kAll: one segment per patch covering region(box) (empty regions keep
/// their slot so the default argument ids index the argument spans).
/// kInterior: the same slots clipped to the patch cell box shrunk by
/// `depth` — at the depths declared per sub-stage below, an interior
/// element's reads stay off every ghost and seam node/side line an
/// in-flight exchange could rewrite, and off everything an earlier
/// sub-stage computes outside ITS interior. kRind: the exact complement
/// (up to four shell pieces per patch, each carrying the patch's
/// argument id). Interior + rind partition kAll exactly, whatever the
/// depth and however thin the patch (an interior-free patch is all
/// rind), so running kInterior then kRind is bit-identical to kAll.
template <typename RegionFn>
vgpu::SegmentTable make_segments(std::span<const Box> boxes, SweepPart part,
                                 int depth, RegionFn&& region) {
  vgpu::SegmentTable t;
  for (std::size_t p = 0; p < boxes.size(); ++p) {
    const Box r = region(boxes[p]);
    if (part == SweepPart::kAll) {
      t.add(r.lower().i, r.lower().j, r.width(), r.height());
      continue;
    }
    const Box core = r.intersect(boxes[p].shrink(depth));
    if (part == SweepPart::kInterior) {
      t.add(core.lower().i, core.lower().j, core.width(), core.height(), p);
      continue;
    }
    for (const Box& piece : mesh::rind_pieces(r, core).piece) {
      if (!piece.empty()) {
        t.add(piece.lower().i, piece.lower().j, piece.width(), piece.height(),
              p);
      }
    }
  }
  return t;
}

vgpu::SegmentTable cell_segments(std::span<const Box> boxes,
                                 SweepPart part = SweepPart::kAll,
                                 int depth = 0) {
  return make_segments(boxes, part, depth, [](const Box& b) { return b; });
}

// Rind depths per stage sub-launch, derived from the stencils (offsets
// into variables an overlapped exchange may have in flight, chained
// reads of earlier sub-launches' outputs, and the in-place update
// hazards of the advection stages). A read of an in-flight CELL variable
// at offset s needs depth >= s (ghosts start outside the box); a read of
// an in-flight NODE/SIDE variable must additionally stay off the seam
// lines (first/last index) that a same-level exchange rewrites. A read
// of sub-launch m's output at offset s from sub-launch k's interior
// needs depth_k >= depth_m + s, and the advection updates that rewrite
// their own inputs in place need the update's interior two deeper than
// the flux sweep's rind reads reach (kernels below note the specific
// hazard). Depth 0 means the whole region is interior (pointwise
// stages: their rind is empty and the split is free).
constexpr int kViscosityDepth = 1;   // pressure (in flight) at +-1
// The corrector and flux sweeps may run inside the window that overlaps
// the acceleration stage: their velocity reads at node offsets 0..+1
// must stay within the acceleration's depth-1 interior — depth 2.
constexpr int kPdvDepth = 2;
constexpr int kAccelerateDepth = 1;  // pressure (in flight) at -1..0
constexpr int kFluxCalcDepth = 2;    // velocity reads chained off accelerate
// advec_cell: volume sweep reads in-flight vol_flux seam faces at 0..+1;
// flux sweep reads in-flight density1/energy1 at -2..+1 and the volume
// sweep's pre_vol at -1..0; the cell update reads the flux sweep's
// output at 0..+1 AND rewrites density1/energy1 that the flux sweep's
// rind still has to read at up to depth 3 — hence 4, not 3.
constexpr int kAdvecCellVolDepth = 1;
constexpr int kAdvecCellFluxDepth = 2;
constexpr int kAdvecCellUpdateDepth = 4;
// advec_mom: the volume sweep reads only vol_flux, which no window
// overlapping advec_mom has in flight (it rides the pre-advection fill
// consumed by advec_cell), so its interior spans the whole patch box —
// required, since the node-mass sweep (depth 1) reads it at -1..0. The
// chain node_flux(1) -> node_mass_pre(2) -> mom_flux(3) -> velocity
// update adds one per link, and the update rewrites vel1 that the
// mom_flux rind still reads at up to depth 4 — hence 5.
constexpr int kAdvecMomVolDepth = 0;
constexpr int kAdvecMomNodeFluxDepth = 1;
constexpr int kAdvecMomNodeMassDepth = 1;
constexpr int kAdvecMomNodeMassPreDepth = 2;
constexpr int kAdvecMomFluxDepth = 3;
constexpr int kAdvecMomUpdateDepth = 5;
constexpr int kResetCellDepth = 0;   // pointwise cell copy
constexpr int kResetNodeDepth = 1;   // writes seam nodes

}  // namespace

void ideal_gas_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const Box> boxes,
                       std::span<const IdealGasPatch> p, SweepPart part,
                       double gamma) {
  const IdealGasPatch* a = p.data();
  // Pointwise: depth 0, so the interior sweep is the whole stage.
  dev.launch_batched(
      s, cell_segments(boxes, part, 0), hydro_cost(8.0, 4.0),
      [=](std::size_t seg, int i, int j) {
        const IdealGasPatch& v = a[seg];
        const double vol = 1.0 / v.density(i, j);
        const double pr = (gamma - 1.0) * v.density(i, j) * v.energy(i, j);
        const double pressure_by_energy = (gamma - 1.0) * v.density(i, j);
        const double pressure_by_volume = -v.density(i, j) * pr;
        // c^2 = v^2 (p * dp/de - dp/dv) = gamma p / rho.
        const double ss2 =
            vol * vol * (pr * pressure_by_energy - pressure_by_volume);
        v.pressure(i, j) = pr;
        v.soundspeed(i, j) = std::sqrt(ss2);
      });
}

void ideal_gas(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
               View density, View energy, View pressure, View soundspeed,
               double gamma) {
  const IdealGasPatch p{density, energy, pressure, soundspeed};
  ideal_gas_batched(dev, s, {&box, 1}, {&p, 1}, SweepPart::kAll, gamma);
}

void viscosity_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const Box> boxes, const CellGeom& g,
                       std::span<const ViscosityPatch> p, SweepPart part) {
  const double dx = g.dx;
  const double dy = g.dy;
  const ViscosityPatch* a = p.data();
  dev.launch_batched(
      s, cell_segments(boxes, part, kViscosityDepth), hydro_cost(45.0, 14.0),
      [=](std::size_t seg, int i, int j) {
        const ViscosityPatch& v = a[seg];
        const double ugrad = (v.xvel0(i + 1, j) + v.xvel0(i + 1, j + 1)) -
                             (v.xvel0(i, j) + v.xvel0(i, j + 1));
        const double vgrad = (v.yvel0(i, j + 1) + v.yvel0(i + 1, j + 1)) -
                             (v.yvel0(i, j) + v.yvel0(i + 1, j));
        const double div = dx * ugrad + dy * vgrad;
        const double strain2 =
            0.5 * (v.xvel0(i, j + 1) + v.xvel0(i + 1, j + 1) - v.xvel0(i, j) -
                   v.xvel0(i + 1, j)) / dy +
            0.5 * (v.yvel0(i + 1, j) + v.yvel0(i + 1, j + 1) - v.yvel0(i, j) -
                   v.yvel0(i, j + 1)) / dx;
        double pgradx =
            (v.pressure(i + 1, j) - v.pressure(i - 1, j)) / (2.0 * dx);
        double pgrady =
            (v.pressure(i, j + 1) - v.pressure(i, j - 1)) / (2.0 * dy);
        const double pgradx2 = pgradx * pgradx;
        const double pgrady2 = pgrady * pgrady;
        const double limiter =
            ((0.5 * ugrad / dx) * pgradx2 + (0.5 * vgrad / dy) * pgrady2 +
             strain2 * pgradx * pgrady) /
            std::max(pgradx2 + pgrady2, Constants::g_small);
        if (limiter > 0.0 || div >= 0.0) {
          v.viscosity(i, j) = 0.0;
          return;
        }
        pgradx = sign(std::max(Constants::g_small, std::fabs(pgradx)), pgradx);
        pgrady = sign(std::max(Constants::g_small, std::fabs(pgrady)), pgrady);
        const double pgrad = std::sqrt(pgradx * pgradx + pgrady * pgrady);
        const double xgrad = std::fabs(dx * pgrad / pgradx);
        const double ygrad = std::fabs(dy * pgrad / pgrady);
        const double grad = std::min(xgrad, ygrad);
        const double grad2 = grad * grad;
        v.viscosity(i, j) =
            2.0 * v.density0(i, j) * grad2 * limiter * limiter;
      });
}

void viscosity_kernel(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
                      const CellGeom& g, View density0, View pressure,
                      View viscosity, View xvel0, View yvel0) {
  const ViscosityPatch p{density0, pressure, viscosity, xvel0, yvel0};
  viscosity_batched(dev, s, {&box, 1}, g, {&p, 1});
}

double calc_dt_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const Box> boxes, const CellGeom& g,
                       std::span<const CalcDtPatch> p) {
  const double dx = g.dx;
  const double dy = g.dy;
  const double volume = g.volume();
  const double xarea = g.xarea();
  const double yarea = g.yarea();
  const CalcDtPatch* a = p.data();
  return dev.reduce_min_batched(
      s, cell_segments(boxes), hydro_cost(40.0, 9.0),
      [=](std::size_t seg, int i, int j) {
        const CalcDtPatch& v = a[seg];
        double cc = v.soundspeed(i, j) * v.soundspeed(i, j);
        cc += 2.0 * v.viscosity(i, j) / v.density0(i, j);
        cc = std::max(std::sqrt(cc), Constants::g_small);
        const double dtct = Constants::dtc_safe * std::min(dx, dy) / cc;
        double div = 0.0;
        double dv1 = (v.xvel0(i, j) + v.xvel0(i, j + 1)) * xarea;
        double dv2 = (v.xvel0(i + 1, j) + v.xvel0(i + 1, j + 1)) * xarea;
        div += dv2 - dv1;
        const double dtut =
            Constants::dtu_safe * 2.0 * volume /
            std::max({std::fabs(dv1), std::fabs(dv2),
                      Constants::g_small * volume});
        dv1 = (v.yvel0(i, j) + v.yvel0(i + 1, j)) * yarea;
        dv2 = (v.yvel0(i, j + 1) + v.yvel0(i + 1, j + 1)) * yarea;
        div += dv2 - dv1;
        const double dtvt =
            Constants::dtv_safe * 2.0 * volume /
            std::max({std::fabs(dv1), std::fabs(dv2),
                      Constants::g_small * volume});
        div /= (2.0 * volume);
        const double dtdivt = (div < -Constants::g_small)
                                  ? Constants::dtdiv_safe * (-1.0 / div)
                                  : Constants::g_big;
        return std::min({dtct, dtut, dtvt, dtdivt});
      });
}

double calc_dt(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
               const CellGeom& g, View density0, View soundspeed,
               View viscosity, View xvel0, View yvel0) {
  const CalcDtPatch p{density0, soundspeed, viscosity, xvel0, yvel0};
  return calc_dt_batched(dev, s, {&box, 1}, g, {&p, 1});
}

void pdv_batched(vgpu::Device& dev, vgpu::Stream& s,
                 std::span<const Box> boxes, const CellGeom& g, double dt,
                 bool predict, std::span<const PdvPatch> p, SweepPart part) {
  const double volume = g.volume();
  const double xarea = g.xarea();
  const double yarea = g.yarea();
  const vgpu::KernelCost cost = hydro_cost(40.0, 16.0);
  const vgpu::SegmentTable segs = cell_segments(boxes, part, kPdvDepth);
  const PdvPatch* a = p.data();
  if (predict) {
    dev.launch_batched(
        s, segs, cost, [=](std::size_t seg, int i, int j) {
          const PdvPatch& v = a[seg];
          const double left =
              xarea * (v.xvel0(i, j) + v.xvel0(i, j + 1) + v.xvel0(i, j) +
                       v.xvel0(i, j + 1)) * 0.25 * dt * 0.5;
          const double right =
              xarea * (v.xvel0(i + 1, j) + v.xvel0(i + 1, j + 1) +
                       v.xvel0(i + 1, j) + v.xvel0(i + 1, j + 1)) *
              0.25 * dt * 0.5;
          const double bottom =
              yarea * (v.yvel0(i, j) + v.yvel0(i + 1, j) + v.yvel0(i, j) +
                       v.yvel0(i + 1, j)) * 0.25 * dt * 0.5;
          const double top =
              yarea * (v.yvel0(i, j + 1) + v.yvel0(i + 1, j + 1) +
                       v.yvel0(i, j + 1) + v.yvel0(i + 1, j + 1)) *
              0.25 * dt * 0.5;
          const double total_flux = right - left + top - bottom;
          const double volume_change = volume / (volume + total_flux);
          const double recip_volume = 1.0 / volume;
          const double energy_change =
              (v.pressure(i, j) / v.density0(i, j) +
               v.viscosity(i, j) / v.density0(i, j)) *
              total_flux * recip_volume;
          v.energy1(i, j) = v.energy0(i, j) - energy_change;
          v.density1(i, j) = v.density0(i, j) * volume_change;
        });
  } else {
    dev.launch_batched(
        s, segs, cost, [=](std::size_t seg, int i, int j) {
          const PdvPatch& v = a[seg];
          const double left =
              xarea * (v.xvel0(i, j) + v.xvel0(i, j + 1) + v.xvel1(i, j) +
                       v.xvel1(i, j + 1)) * 0.25 * dt;
          const double right =
              xarea * (v.xvel0(i + 1, j) + v.xvel0(i + 1, j + 1) +
                       v.xvel1(i + 1, j) + v.xvel1(i + 1, j + 1)) * 0.25 * dt;
          const double bottom =
              yarea * (v.yvel0(i, j) + v.yvel0(i + 1, j) + v.yvel1(i, j) +
                       v.yvel1(i + 1, j)) * 0.25 * dt;
          const double top =
              yarea * (v.yvel0(i, j + 1) + v.yvel0(i + 1, j + 1) +
                       v.yvel1(i, j + 1) + v.yvel1(i + 1, j + 1)) * 0.25 * dt;
          const double total_flux = right - left + top - bottom;
          const double volume_change = volume / (volume + total_flux);
          const double recip_volume = 1.0 / volume;
          const double energy_change =
              (v.pressure(i, j) / v.density0(i, j) +
               v.viscosity(i, j) / v.density0(i, j)) *
              total_flux * recip_volume;
          v.energy1(i, j) = v.energy0(i, j) - energy_change;
          v.density1(i, j) = v.density0(i, j) * volume_change;
        });
  }
}

void pdv(vgpu::Device& dev, vgpu::Stream& s, const Box& box, const CellGeom& g,
         double dt, bool predict, View xvel0, View yvel0, View xvel1,
         View yvel1, View density0, View density1, View energy0, View energy1,
         View pressure, View viscosity) {
  const PdvPatch p{xvel0, yvel0, xvel1, yvel1, density0,
                   density1, energy0, energy1, pressure, viscosity};
  pdv_batched(dev, s, {&box, 1}, g, dt, predict, {&p, 1});
}

void accelerate_batched(vgpu::Device& dev, vgpu::Stream& s,
                        std::span<const Box> boxes, const CellGeom& g,
                        double dt, std::span<const AcceleratePatch> p,
                        SweepPart part, double gx, double gy) {
  const double halfdt = 0.5 * dt;
  const double volume = g.volume();
  const double xarea = g.xarea();
  const double yarea = g.yarea();
  // Gravity rides the half-step like the pressure impulse. Guarded so
  // the zero-gravity path performs no extra adds (bit-identity: += 0.0
  // would still rewrite a signed zero).
  const bool has_gravity = gx != 0.0 || gy != 0.0;
  const AcceleratePatch* a = p.data();
  dev.launch_batched(
      s,
      make_segments(boxes, part, kAccelerateDepth,
                    [](const Box& b) {
                      return mesh::to_centering(b, mesh::Centering::kNode);
                    }),
      hydro_cost(45.0, 18.0), [=](std::size_t seg, int i, int j) {
        const AcceleratePatch& v = a[seg];
        const double nodal_mass =
            (v.density0(i - 1, j - 1) * volume + v.density0(i, j - 1) * volume +
             v.density0(i, j) * volume + v.density0(i - 1, j) * volume) * 0.25;
        const double stepbymass = halfdt / nodal_mass;
        double xv =
            v.xvel0(i, j) -
            stepbymass *
                (xarea * (v.pressure(i, j) - v.pressure(i - 1, j)) +
                 xarea * (v.pressure(i, j - 1) - v.pressure(i - 1, j - 1)));
        double yv =
            v.yvel0(i, j) -
            stepbymass *
                (yarea * (v.pressure(i, j) - v.pressure(i, j - 1)) +
                 yarea * (v.pressure(i - 1, j) - v.pressure(i - 1, j - 1)));
        xv -= stepbymass *
              (xarea * (v.viscosity(i, j) - v.viscosity(i - 1, j)) +
               xarea * (v.viscosity(i, j - 1) - v.viscosity(i - 1, j - 1)));
        yv -= stepbymass *
              (yarea * (v.viscosity(i, j) - v.viscosity(i, j - 1)) +
               yarea * (v.viscosity(i - 1, j) - v.viscosity(i - 1, j - 1)));
        if (has_gravity) {
          xv += halfdt * gx;
          yv += halfdt * gy;
        }
        v.xvel1(i, j) = xv;
        v.yvel1(i, j) = yv;
      });
}

void accelerate(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
                const CellGeom& g, double dt, View density0, View pressure,
                View viscosity, View xvel0, View yvel0, View xvel1,
                View yvel1, double gx, double gy) {
  const AcceleratePatch p{density0, pressure, viscosity, xvel0,
                          yvel0, xvel1, yvel1};
  accelerate_batched(dev, s, {&box, 1}, g, dt, {&p, 1}, SweepPart::kAll, gx,
                     gy);
}

void flux_calc_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const Box> boxes, const CellGeom& g,
                       double dt, std::span<const FluxCalcPatch> p,
                       SweepPart part) {
  const double xarea = g.xarea();
  const double yarea = g.yarea();
  const FluxCalcPatch* a = p.data();
  dev.launch_batched(
      s,
      make_segments(boxes, part, kFluxCalcDepth,
                    [](const Box& b) {
                      return mesh::to_centering(b, mesh::Centering::kXSide);
                    }),
      hydro_cost(6.0, 5.0), [=](std::size_t seg, int i, int j) {
        const FluxCalcPatch& v = a[seg];
        v.vol_flux_x(i, j) = 0.25 * dt * xarea *
                             (v.xvel0(i, j) + v.xvel0(i, j + 1) +
                              v.xvel1(i, j) + v.xvel1(i, j + 1));
      });
  dev.launch_batched(
      s,
      make_segments(boxes, part, kFluxCalcDepth,
                    [](const Box& b) {
                      return mesh::to_centering(b, mesh::Centering::kYSide);
                    }),
      hydro_cost(6.0, 5.0), [=](std::size_t seg, int i, int j) {
        const FluxCalcPatch& v = a[seg];
        v.vol_flux_y(i, j) = 0.25 * dt * yarea *
                             (v.yvel0(i, j) + v.yvel0(i + 1, j) +
                              v.yvel1(i, j) + v.yvel1(i + 1, j));
      });
}

void flux_calc(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
               const CellGeom& g, double dt, View xvel0, View yvel0, View xvel1,
               View yvel1, View vol_flux_x, View vol_flux_y) {
  const FluxCalcPatch p{xvel0, yvel0, xvel1, yvel1, vol_flux_x, vol_flux_y};
  flux_calc_batched(dev, s, {&box, 1}, g, dt, {&p, 1});
}

void advec_cell_batched(vgpu::Device& dev, vgpu::Stream& s,
                        std::span<const Box> boxes, const CellGeom& g,
                        bool x_direction, int sweep_number,
                        std::span<const AdvecCellPatch> p, SweepPart part) {
  constexpr double one_by_six = 1.0 / 6.0;
  const double volume = g.volume();
  const AdvecCellPatch* a = p.data();
  const Box* bx = boxes.data();

  // Stage 1: pre/post volumes over a 2-cell halo.
  const vgpu::SegmentTable vsegs = make_segments(
      boxes, part, kAdvecCellVolDepth, [](const Box& b) { return b.grow(2); });
  if (x_direction) {
    if (sweep_number == 1) {
      dev.launch_batched(
          s, vsegs, hydro_cost(8.0, 6.0), [=](std::size_t seg, int i, int j) {
            const AdvecCellPatch& v = a[seg];
            v.pre_vol(i, j) =
                volume + (v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j) +
                          v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j));
            v.post_vol(i, j) =
                v.pre_vol(i, j) - (v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j));
          });
    } else {
      dev.launch_batched(
          s, vsegs, hydro_cost(4.0, 4.0), [=](std::size_t seg, int i, int j) {
            const AdvecCellPatch& v = a[seg];
            v.pre_vol(i, j) =
                volume + v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j);
            v.post_vol(i, j) = volume;
          });
    }
    // Stage 2: second-order van Leer fluxes on x faces xmin..xmax+2
    // (CloverLeaf's j = x_min, x_max+2 loop bounds).
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecCellFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i, b.lower().j, b.upper().i + 2,
                                   b.upper().j);
                      }),
        hydro_cost(45.0, 14.0), [=](std::size_t seg, int i, int j) {
          const AdvecCellPatch& v = a[seg];
          const int xmax = bx[seg].upper().i;
          int upwind, donor, downwind, dif;
          if (v.vol_flux_x(i, j) > 0.0) {
            upwind = i - 2;
            donor = i - 1;
            downwind = i;
            dif = donor;
          } else {
            upwind = std::min(i + 1, xmax + 2);
            donor = i;
            downwind = i - 1;
            dif = upwind;
          }
          (void)dif;  // uniform mesh: vertexdx(i)/vertexdx(dif) == 1
          const double sigmat =
              std::fabs(v.vol_flux_x(i, j)) / v.pre_vol(donor, j);
          const double sigma3 = (1.0 + sigmat);
          const double sigma4 = 2.0 - sigmat;
          double diffuw = v.density1(donor, j) - v.density1(upwind, j);
          double diffdw = v.density1(downwind, j) - v.density1(donor, j);
          double limiter = 0.0;
          if (diffuw * diffdw > 0.0) {
            limiter = (1.0 - sigmat) * sign(1.0, diffdw) *
                      std::min({std::fabs(diffuw), std::fabs(diffdw),
                                one_by_six * (sigma3 * std::fabs(diffuw) +
                                              sigma4 * std::fabs(diffdw))});
          }
          v.mass_flux_x(i, j) =
              v.vol_flux_x(i, j) * (v.density1(donor, j) + limiter);
          const double sigmam =
              std::fabs(v.mass_flux_x(i, j)) /
              (v.density1(donor, j) * v.pre_vol(donor, j));
          diffuw = v.energy1(donor, j) - v.energy1(upwind, j);
          diffdw = v.energy1(downwind, j) - v.energy1(donor, j);
          limiter = 0.0;
          if (diffuw * diffdw > 0.0) {
            limiter = (1.0 - sigmam) * sign(1.0, diffdw) *
                      std::min({std::fabs(diffuw), std::fabs(diffdw),
                                one_by_six * (sigma3 * std::fabs(diffuw) +
                                              sigma4 * std::fabs(diffdw))});
          }
          v.ener_flux(i, j) =
              v.mass_flux_x(i, j) * (v.energy1(donor, j) + limiter);
        });
    // Stage 3: conservative cell update. Its interior sits two deeper
    // than the flux sweep's (kAdvecCellUpdateDepth): the flux sweep's
    // RIND still reads pre-update density1/energy1 up to depth 3, so
    // the in-place interior update must not reach them.
    dev.launch_batched(
        s, cell_segments(boxes, part, kAdvecCellUpdateDepth),
        hydro_cost(14.0, 9.0), [=](std::size_t seg, int i, int j) {
          const AdvecCellPatch& v = a[seg];
          const double pre_mass = v.density1(i, j) * v.pre_vol(i, j);
          const double post_mass =
              pre_mass + v.mass_flux_x(i, j) - v.mass_flux_x(i + 1, j);
          const double post_ener =
              (v.energy1(i, j) * pre_mass + v.ener_flux(i, j) -
               v.ener_flux(i + 1, j)) /
              post_mass;
          const double advec_vol =
              v.pre_vol(i, j) + v.vol_flux_x(i, j) - v.vol_flux_x(i + 1, j);
          v.density1(i, j) = post_mass / advec_vol;
          v.energy1(i, j) = post_ener;
        });
  } else {
    if (sweep_number == 1) {
      dev.launch_batched(
          s, vsegs, hydro_cost(8.0, 6.0), [=](std::size_t seg, int i, int j) {
            const AdvecCellPatch& v = a[seg];
            v.pre_vol(i, j) =
                volume + (v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j) +
                          v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j));
            v.post_vol(i, j) =
                v.pre_vol(i, j) - (v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j));
          });
    } else {
      dev.launch_batched(
          s, vsegs, hydro_cost(4.0, 4.0), [=](std::size_t seg, int i, int j) {
            const AdvecCellPatch& v = a[seg];
            v.pre_vol(i, j) =
                volume + v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j);
            v.post_vol(i, j) = volume;
          });
    }
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecCellFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i, b.lower().j, b.upper().i,
                                   b.upper().j + 2);
                      }),
        hydro_cost(45.0, 14.0), [=](std::size_t seg, int i, int j) {
          const AdvecCellPatch& v = a[seg];
          const int ymax = bx[seg].upper().j;
          int upwind, donor, downwind, dif;
          if (v.vol_flux_y(i, j) > 0.0) {
            upwind = j - 2;
            donor = j - 1;
            downwind = j;
            dif = donor;
          } else {
            upwind = std::min(j + 1, ymax + 2);
            donor = j;
            downwind = j - 1;
            dif = upwind;
          }
          (void)dif;
          const double sigmat =
              std::fabs(v.vol_flux_y(i, j)) / v.pre_vol(i, donor);
          const double sigma3 = (1.0 + sigmat);
          const double sigma4 = 2.0 - sigmat;
          double diffuw = v.density1(i, donor) - v.density1(i, upwind);
          double diffdw = v.density1(i, downwind) - v.density1(i, donor);
          double limiter = 0.0;
          if (diffuw * diffdw > 0.0) {
            limiter = (1.0 - sigmat) * sign(1.0, diffdw) *
                      std::min({std::fabs(diffuw), std::fabs(diffdw),
                                one_by_six * (sigma3 * std::fabs(diffuw) +
                                              sigma4 * std::fabs(diffdw))});
          }
          v.mass_flux_y(i, j) =
              v.vol_flux_y(i, j) * (v.density1(i, donor) + limiter);
          const double sigmam =
              std::fabs(v.mass_flux_y(i, j)) /
              (v.density1(i, donor) * v.pre_vol(i, donor));
          diffuw = v.energy1(i, donor) - v.energy1(i, upwind);
          diffdw = v.energy1(i, downwind) - v.energy1(i, donor);
          limiter = 0.0;
          if (diffuw * diffdw > 0.0) {
            limiter = (1.0 - sigmam) * sign(1.0, diffdw) *
                      std::min({std::fabs(diffuw), std::fabs(diffdw),
                                one_by_six * (sigma3 * std::fabs(diffuw) +
                                              sigma4 * std::fabs(diffdw))});
          }
          v.ener_flux(i, j) =
              v.mass_flux_y(i, j) * (v.energy1(i, donor) + limiter);
        });
    dev.launch_batched(
        s, cell_segments(boxes, part, kAdvecCellUpdateDepth),
        hydro_cost(14.0, 9.0), [=](std::size_t seg, int i, int j) {
          const AdvecCellPatch& v = a[seg];
          const double pre_mass = v.density1(i, j) * v.pre_vol(i, j);
          const double post_mass =
              pre_mass + v.mass_flux_y(i, j) - v.mass_flux_y(i, j + 1);
          const double post_ener =
              (v.energy1(i, j) * pre_mass + v.ener_flux(i, j) -
               v.ener_flux(i, j + 1)) /
              post_mass;
          const double advec_vol =
              v.pre_vol(i, j) + v.vol_flux_y(i, j) - v.vol_flux_y(i, j + 1);
          v.density1(i, j) = post_mass / advec_vol;
          v.energy1(i, j) = post_ener;
        });
  }
}

void advec_cell(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
                const CellGeom& g, bool x_direction, int sweep_number,
                View density1, View energy1, View vol_flux_x, View vol_flux_y,
                View mass_flux_x, View mass_flux_y, View pre_vol, View post_vol,
                View ener_flux) {
  const AdvecCellPatch p{density1, energy1, vol_flux_x,
                         vol_flux_y, mass_flux_x, mass_flux_y,
                         pre_vol, post_vol, ener_flux};
  advec_cell_batched(dev, s, {&box, 1}, g, x_direction, sweep_number, {&p, 1});
}

void advec_mom_shared_batched(vgpu::Device& dev, vgpu::Stream& s,
                              std::span<const Box> boxes, const CellGeom& g,
                              int mom_sweep,
                              std::span<const AdvecMomSharedPatch> p,
                              SweepPart part) {
  const double volume = g.volume();
  const bool x_direction = mom_sweep == 1 || mom_sweep == 3;
  const AdvecMomSharedPatch* a = p.data();

  // Stage 1: cell volumes seen by this sweep, over a 2-cell halo.
  dev.launch_batched(
      s,
      make_segments(boxes, part, kAdvecMomVolDepth,
                    [](const Box& b) { return b.grow(2); }),
      hydro_cost(6.0, 6.0), [=](std::size_t seg, int i, int j) {
        const AdvecMomSharedPatch& v = a[seg];
        switch (mom_sweep) {
          case 1:  // x sweep, first
            v.post_vol(i, j) =
                volume + v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j);
            v.pre_vol(i, j) =
                v.post_vol(i, j) + v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j);
            break;
          case 2:  // y sweep, first
            v.post_vol(i, j) =
                volume + v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j);
            v.pre_vol(i, j) =
                v.post_vol(i, j) + v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j);
            break;
          case 3:  // x sweep, second
            v.post_vol(i, j) = volume;
            v.pre_vol(i, j) =
                v.post_vol(i, j) + v.vol_flux_y(i, j + 1) - v.vol_flux_y(i, j);
            break;
          default:  // 4: y sweep, second
            v.post_vol(i, j) = volume;
            v.pre_vol(i, j) =
                v.post_vol(i, j) + v.vol_flux_x(i + 1, j) - v.vol_flux_x(i, j);
            break;
        }
      });

  if (x_direction) {
    // Node fluxes over [xmin-2, xmax+2] (CloverLeaf bounds), node masses
    // over [xmin-1, xmax+2]; ghost data depth 2 covers every read.
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomNodeFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i - 2, b.lower().j,
                                   b.upper().i + 2, b.upper().j + 1);
                      }),
        hydro_cost(10.0, 10.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_flux(i, j) =
              0.25 * (v.mass_flux_x(i, j - 1) + v.mass_flux_x(i, j) +
                      v.mass_flux_x(i + 1, j - 1) + v.mass_flux_x(i + 1, j));
        });
    const auto mass_region = [](const Box& b) {
      return Box(b.lower().i - 1, b.lower().j, b.upper().i + 2,
                 b.upper().j + 1);
    };
    dev.launch_batched(
        s, make_segments(boxes, part, kAdvecMomNodeMassDepth, mass_region),
        hydro_cost(10.0, 10.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_mass_post(i, j) =
              0.25 * (v.density1(i, j - 1) * v.post_vol(i, j - 1) +
                      v.density1(i, j) * v.post_vol(i, j) +
                      v.density1(i - 1, j - 1) * v.post_vol(i - 1, j - 1) +
                      v.density1(i - 1, j) * v.post_vol(i - 1, j));
        });
    dev.launch_batched(
        s, make_segments(boxes, part, kAdvecMomNodeMassPreDepth, mass_region),
        hydro_cost(3.0, 4.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_mass_pre(i, j) = v.node_mass_post(i, j) -
                                  v.node_flux(i - 1, j) + v.node_flux(i, j);
        });
  } else {
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomNodeFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i, b.lower().j - 2,
                                   b.upper().i + 1, b.upper().j + 2);
                      }),
        hydro_cost(10.0, 10.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_flux(i, j) =
              0.25 * (v.mass_flux_y(i - 1, j) + v.mass_flux_y(i, j) +
                      v.mass_flux_y(i - 1, j + 1) + v.mass_flux_y(i, j + 1));
        });
    const auto mass_region = [](const Box& b) {
      return Box(b.lower().i, b.lower().j - 1, b.upper().i + 1,
                 b.upper().j + 2);
    };
    dev.launch_batched(
        s, make_segments(boxes, part, kAdvecMomNodeMassDepth, mass_region),
        hydro_cost(10.0, 10.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_mass_post(i, j) =
              0.25 * (v.density1(i, j - 1) * v.post_vol(i, j - 1) +
                      v.density1(i, j) * v.post_vol(i, j) +
                      v.density1(i - 1, j - 1) * v.post_vol(i - 1, j - 1) +
                      v.density1(i - 1, j) * v.post_vol(i - 1, j));
        });
    dev.launch_batched(
        s, make_segments(boxes, part, kAdvecMomNodeMassPreDepth, mass_region),
        hydro_cost(3.0, 4.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomSharedPatch& v = a[seg];
          v.node_mass_pre(i, j) = v.node_mass_post(i, j) -
                                  v.node_flux(i, j - 1) + v.node_flux(i, j);
        });
  }
}

void advec_mom_velocity_batched(vgpu::Device& dev, vgpu::Stream& s,
                                std::span<const Box> boxes, const CellGeom& g,
                                bool x_direction,
                                std::span<const AdvecMomVelPatch> p,
                                SweepPart part) {
  const double dx = g.dx;
  const double dy = g.dy;
  const AdvecMomVelPatch* a = p.data();

  if (x_direction) {
    // Monotonic momentum flux.
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i - 1, b.lower().j,
                                   b.upper().i + 1, b.upper().j + 1);
                      }),
        hydro_cost(30.0, 8.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomVelPatch& v = a[seg];
          int upwind, donor, downwind, dif;
          if (v.node_flux(i, j) < 0.0) {
            // No patch-local clamp: i+2 <= xmax+3 is inside the exchanged
            // ghost nodes, and clamping here would make the two patches
            // sharing a seam node disagree on its value.
            upwind = i + 2;
            donor = i + 1;
            downwind = i;
            dif = donor;
          } else {
            upwind = i - 1;
            donor = i;
            downwind = i + 1;
            dif = upwind;
          }
          (void)dif;
          const double sigma =
              std::fabs(v.node_flux(i, j)) / v.node_mass_pre(donor, j);
          const double width = dx;
          const double vdiffuw = v.vel1(donor, j) - v.vel1(upwind, j);
          const double vdiffdw = v.vel1(downwind, j) - v.vel1(donor, j);
          double limiter = 0.0;
          if (vdiffuw * vdiffdw > 0.0) {
            const double auw = std::fabs(vdiffuw);
            const double adw = std::fabs(vdiffdw);
            const double wind = (vdiffdw <= 0.0) ? -1.0 : 1.0;
            limiter =
                wind *
                std::min({width * ((2.0 - sigma) * adw / width +
                                   (1.0 + sigma) * auw / dx) / 6.0,
                          auw, adw});
          }
          const double advec_vel = v.vel1(donor, j) + (1.0 - sigma) * limiter;
          v.mom_flux(i, j) = advec_vel * v.node_flux(i, j);
        });
    // Velocity update on the patch's nodes. Interior two deeper than the
    // mom_flux sweep (kAdvecMomUpdateDepth): that sweep's rind still
    // reads pre-update vel1 up to depth 4.
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomUpdateDepth,
                      [](const Box& b) {
                        return mesh::to_centering(b, mesh::Centering::kNode);
                      }),
        hydro_cost(6.0, 5.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomVelPatch& v = a[seg];
          v.vel1(i, j) = (v.vel1(i, j) * v.node_mass_pre(i, j) +
                          v.mom_flux(i - 1, j) - v.mom_flux(i, j)) /
                         v.node_mass_post(i, j);
        });
  } else {
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomFluxDepth,
                      [](const Box& b) {
                        return Box(b.lower().i, b.lower().j - 1,
                                   b.upper().i + 1, b.upper().j + 1);
                      }),
        hydro_cost(30.0, 8.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomVelPatch& v = a[seg];
          int upwind, donor, downwind, dif;
          if (v.node_flux(i, j) < 0.0) {
            upwind = j + 2;  // <= ymax+3: inside exchanged ghost nodes
            donor = j + 1;
            downwind = j;
            dif = donor;
          } else {
            upwind = j - 1;
            donor = j;
            downwind = j + 1;
            dif = upwind;
          }
          (void)dif;
          const double sigma =
              std::fabs(v.node_flux(i, j)) / v.node_mass_pre(i, donor);
          const double width = dy;
          const double vdiffuw = v.vel1(i, donor) - v.vel1(i, upwind);
          const double vdiffdw = v.vel1(i, downwind) - v.vel1(i, donor);
          double limiter = 0.0;
          if (vdiffuw * vdiffdw > 0.0) {
            const double auw = std::fabs(vdiffuw);
            const double adw = std::fabs(vdiffdw);
            const double wind = (vdiffdw <= 0.0) ? -1.0 : 1.0;
            limiter =
                wind *
                std::min({width * ((2.0 - sigma) * adw / width +
                                   (1.0 + sigma) * auw / dy) / 6.0,
                          auw, adw});
          }
          const double advec_vel = v.vel1(i, donor) + (1.0 - sigma) * limiter;
          v.mom_flux(i, j) = advec_vel * v.node_flux(i, j);
        });
    dev.launch_batched(
        s,
        make_segments(boxes, part, kAdvecMomUpdateDepth,
                      [](const Box& b) {
                        return mesh::to_centering(b, mesh::Centering::kNode);
                      }),
        hydro_cost(6.0, 5.0), [=](std::size_t seg, int i, int j) {
          const AdvecMomVelPatch& v = a[seg];
          v.vel1(i, j) = (v.vel1(i, j) * v.node_mass_pre(i, j) +
                          v.mom_flux(i, j - 1) - v.mom_flux(i, j)) /
                         v.node_mass_post(i, j);
        });
  }
}

void advec_mom_batched(vgpu::Device& dev, vgpu::Stream& s,
                       std::span<const Box> boxes, const CellGeom& g,
                       bool x_direction, int mom_sweep,
                       std::span<const AdvecMomPatch> p, SweepPart part) {
  // One component, all six sub-stages: the shared sweep recomputes the
  // component-independent work exactly as the paper's original kernel
  // does (per-patch route; the batched runner calls the shared sweep
  // once per direction and fuses both components instead).
  std::vector<AdvecMomSharedPatch> shared;
  std::vector<AdvecMomVelPatch> vel;
  shared.reserve(p.size());
  vel.reserve(p.size());
  for (const AdvecMomPatch& v : p) {
    shared.push_back(AdvecMomSharedPatch{
        v.density1, v.vol_flux_x, v.vol_flux_y, v.mass_flux_x, v.mass_flux_y,
        v.node_flux, v.node_mass_post, v.node_mass_pre, v.pre_vol,
        v.post_vol});
    vel.push_back(AdvecMomVelPatch{v.vel1, v.mom_flux, v.node_flux,
                                   v.node_mass_post, v.node_mass_pre});
  }
  advec_mom_shared_batched(dev, s, boxes, g, mom_sweep, shared, part);
  advec_mom_velocity_batched(dev, s, boxes, g, x_direction, vel, part);
}

void advec_mom(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
               const CellGeom& g, bool x_direction, int mom_sweep, View vel1,
               View density1, View vol_flux_x, View vol_flux_y,
               View mass_flux_x, View mass_flux_y, View node_flux,
               View node_mass_post, View node_mass_pre, View mom_flux,
               View pre_vol, View post_vol) {
  const AdvecMomPatch p{vel1, density1, vol_flux_x, vol_flux_y,
                        mass_flux_x, mass_flux_y, node_flux, node_mass_post,
                        node_mass_pre, mom_flux, pre_vol, post_vol};
  advec_mom_batched(dev, s, {&box, 1}, g, x_direction, mom_sweep, {&p, 1});
}

void reset_field_batched(vgpu::Device& dev, vgpu::Stream& s,
                         std::span<const Box> boxes,
                         std::span<const ResetFieldPatch> p, SweepPart part) {
  const ResetFieldPatch* a = p.data();
  dev.launch_batched(
      s, cell_segments(boxes, part, kResetCellDepth), hydro_cost(0.0, 8.0),
      [=](std::size_t seg, int i, int j) {
        const ResetFieldPatch& v = a[seg];
        v.density0(i, j) = v.density1(i, j);
        v.energy0(i, j) = v.energy1(i, j);
      });
  dev.launch_batched(
      s,
      make_segments(boxes, part, kResetNodeDepth,
                    [](const Box& b) {
                      return mesh::to_centering(b, mesh::Centering::kNode);
                    }),
      hydro_cost(0.0, 8.0), [=](std::size_t seg, int i, int j) {
        const ResetFieldPatch& v = a[seg];
        v.xvel0(i, j) = v.xvel1(i, j);
        v.yvel0(i, j) = v.yvel1(i, j);
      });
}

void reset_field(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
                 View density0, View density1, View energy0, View energy1,
                 View xvel0, View xvel1, View yvel0, View yvel1) {
  const ResetFieldPatch p{density0, density1, energy0, energy1,
                          xvel0, xvel1, yvel0, yvel1};
  reset_field_batched(dev, s, {&box, 1}, {&p, 1});
}

FieldSummary field_summary(vgpu::Device& dev, vgpu::Stream& s, const Box& box,
                           const CellGeom& g, View density0, View energy0,
                           View xvel0, View yvel0) {
  const double volume = g.volume();
  const int ilo = box.lower().i;
  const int jlo = box.lower().j;
  const int w = box.width();
  // Partial sums per fixed-size block of cells, combined in block order:
  // the result depends neither on the worker count nor on which chunk
  // finishes first, so repeated runs (and threaded ranks) agree bit for
  // bit. Charged as a single summary kernel (CloverLeaf's field_summary).
  dev.charge_reduction(box.size() * 4, 8.0);
  constexpr std::int64_t kBlock = 1024;
  const std::int64_t n = box.size();
  std::vector<FieldSummary> partial(
      static_cast<std::size_t>((n + kBlock - 1) / kBlock));
  util::ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(partial.size()),
      [&](std::int64_t first, std::int64_t last) {
        for (std::int64_t b = first; b < last; ++b) {
          FieldSummary& local = partial[static_cast<std::size_t>(b)];
          const std::int64_t end = std::min(n, (b + 1) * kBlock);
          for (std::int64_t t = b * kBlock; t < end; ++t) {
            const int i = ilo + static_cast<int>(t % w);
            const int j = jlo + static_cast<int>(t / w);
            const double cell_mass = density0(i, j) * volume;
            local.mass += cell_mass;
            local.internal_energy += cell_mass * energy0(i, j);
            double vsqrd = 0.0;
            for (int kj = j; kj <= j + 1; ++kj) {
              for (int ki = i; ki <= i + 1; ++ki) {
                vsqrd += 0.25 * (xvel0(ki, kj) * xvel0(ki, kj) +
                                 yvel0(ki, kj) * yvel0(ki, kj));
              }
            }
            local.kinetic_energy += cell_mass * 0.5 * vsqrd;
          }
        }
      });
  FieldSummary total;
  for (const FieldSummary& p : partial) {
    total.mass += p.mass;
    total.internal_energy += p.internal_energy;
    total.kinetic_energy += p.kinetic_energy;
  }
  dev.charge_scalar_readback();
  (void)s;
  return total;
}

}  // namespace ramr::hydro
