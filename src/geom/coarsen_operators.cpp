#include "geom/coarsen_operators.hpp"

#include <vector>

#include "geom/operator_support.hpp"

namespace ramr::geom {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaData;
using xfer::CoarsenTask;

namespace {

/// r x r gather per coarse element: reads r^2 doubles, writes one.
vgpu::KernelCost gather_cost(const IntVector& ratio) {
  const double n = static_cast<double>(ratio.i) * ratio.j;
  return vgpu::KernelCost{2.0 * n, 8.0 * (n + 1.0)};
}

/// Clips a requested coarse region so all fine reads stay in bounds.
Box clip_coarse_region(const CudaData& dst, const CudaData& src,
                       const Box& coarse_cells, const IntVector& ratio,
                       Centering comp, int k, bool node_like) {
  Box region = mesh::to_centering(coarse_cells, comp)
                   .intersect(dst.component(k).index_box());
  const Box fbox = src.component(k).index_box();
  Box coarse_ok;
  if (node_like) {
    // Injection reads the single coincident fine index I*r.
    coarse_ok = Box(IntVector(mesh::floor_div(fbox.lower().i + ratio.i - 1, ratio.i),
                              mesh::floor_div(fbox.lower().j + ratio.j - 1, ratio.j)),
                    IntVector(mesh::floor_div(fbox.upper().i, ratio.i),
                              mesh::floor_div(fbox.upper().j, ratio.j)));
  } else {
    // Cell gather reads [I*r, I*r + r - 1].
    coarse_ok = Box(IntVector(mesh::floor_div(fbox.lower().i + ratio.i - 1, ratio.i),
                              mesh::floor_div(fbox.lower().j + ratio.j - 1, ratio.j)),
                    IntVector(mesh::floor_div(fbox.upper().i - ratio.i + 1, ratio.i),
                              mesh::floor_div(fbox.upper().j - ratio.j + 1, ratio.j)));
  }
  return region.intersect(coarse_ok);
}

/// Coarse/fine/aux views of one task's component k, indexed by the fused
/// launch's segment id.
struct ViewTriple {
  util::View c;
  util::View f;
  util::View w;  ///< aux (fine density) when the operator needs it
};

/// Builds the fused launch inputs for component k: one segment per task
/// covering region(task) (empty regions keep their slot) and the
/// matching views. The aux view is materialized only when the operator
/// reads it — a forwarded aux of a different centring need not have a
/// component k at all.
template <typename RegionFn>
vgpu::SegmentTable gather_component(std::span<const CoarsenTask> tasks, int k,
                                    RegionFn&& region, bool use_aux,
                                    std::vector<ViewTriple>& views) {
  vgpu::SegmentTable segs;
  views.clear();
  views.reserve(tasks.size());
  for (const CoarsenTask& t : tasks) {
    CudaData& dst = as_cuda(*t.dst);
    const CudaData& src = as_cuda(*t.src);
    const Box r = region(dst, src, t.coarse_cells);
    segs.add(r.lower().i, r.lower().j, r.width(), r.height());
    views.push_back(ViewTriple{
        dst.device_view(k), src.device_view(k),
        use_aux && t.src_aux != nullptr ? as_cuda(*t.src_aux).device_view(k)
                                        : util::View{}});
  }
  return segs;
}

}  // namespace

void NodeInjectionCoarsen::coarsen_batched(std::span<const CoarsenTask> tasks,
                                           const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "coarsen");
  const int ri = ratio.i;
  const int rj = ratio.j;

  for (int k = 0; k < as_cuda(*tasks[0].dst).components(); ++k) {
    std::vector<ViewTriple> views;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& coarse_cells) {
          return clip_coarse_region(dst, src, coarse_cells, ratio,
                                    Centering::kNode, k, /*node_like=*/true);
        },
        /*use_aux=*/false, views);
    const ViewTriple* pv = views.data();
    device.launch_batched(stream, segs, vgpu::KernelCost{0.0, 16.0},
                          [=](std::size_t s, int i, int j) {
                            pv[s].c(i, j) = pv[s].f(i * ri, j * rj);
                          });
  }
}

void VolumeWeightedCoarsen::coarsen_batched(std::span<const CoarsenTask> tasks,
                                            const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "coarsen");
  const int ri = ratio.i;
  const int rj = ratio.j;
  // Uniform mesh: vol(fine)/vol(coarse) = 1 / (ri * rj). The kernel
  // follows the paper's Fig. 8 listing.
  const double inv_vc = 1.0 / (static_cast<double>(ri) * rj);

  for (int k = 0; k < as_cuda(*tasks[0].dst).components(); ++k) {
    std::vector<ViewTriple> views;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& coarse_cells) {
          return clip_coarse_region(dst, src, coarse_cells, ratio,
                                    Centering::kCell, k, /*node_like=*/false);
        },
        /*use_aux=*/false, views);
    const ViewTriple* pv = views.data();
    device.launch_batched(
        stream, segs, gather_cost(ratio), [=](std::size_t s, int i, int j) {
          const util::View& c = pv[s].c;
          const util::View& f = pv[s].f;
          double spv = 0.0;
          for (int jj = 0; jj < rj; ++jj) {
            for (int ii = 0; ii < ri; ++ii) {
              spv += f(i * ri + ii, j * rj + jj);
            }
          }
          c(i, j) = spv * inv_vc;
        });
  }
}

void MassWeightedCoarsen::coarsen_batched(std::span<const CoarsenTask> tasks,
                                          const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  for (const CoarsenTask& t : tasks) {
    RAMR_REQUIRE(t.src_aux != nullptr,
                 "mass-weighted coarsen requires the fine density as aux");
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "coarsen");
  const int ri = ratio.i;
  const int rj = ratio.j;
  vgpu::KernelCost cost = gather_cost(ratio);
  cost.bytes_per_thread *= 2.0;  // reads density too

  for (int k = 0; k < as_cuda(*tasks[0].dst).components(); ++k) {
    std::vector<ViewTriple> views;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& coarse_cells) {
          return clip_coarse_region(dst, src, coarse_cells, ratio,
                                    Centering::kCell, k, /*node_like=*/false);
        },
        /*use_aux=*/true, views);
    const ViewTriple* pv = views.data();
    device.launch_batched(
        stream, segs, cost, [=](std::size_t s, int i, int j) {
          const util::View& c = pv[s].c;
          const util::View& f = pv[s].f;
          const util::View& w = pv[s].w;
          double mass_energy = 0.0;
          double mass = 0.0;
          for (int jj = 0; jj < rj; ++jj) {
            for (int ii = 0; ii < ri; ++ii) {
              const double m = w(i * ri + ii, j * rj + jj);
              mass_energy += m * f(i * ri + ii, j * rj + jj);
              mass += m;
            }
          }
          c(i, j) = mass > 0.0 ? mass_energy / mass : 0.0;
        });
  }
}

void SideSumCoarsen::coarsen_batched(std::span<const CoarsenTask> tasks,
                                     const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "coarsen");
  RAMR_REQUIRE(as_cuda(*tasks[0].dst).components() == 2,
               "side coarsen requires side data");
  const int ri = ratio.i;
  const int rj = ratio.j;

  for (int k = 0; k < 2; ++k) {
    const Centering comp = (k == 0) ? Centering::kXSide : Centering::kYSide;
    std::vector<ViewTriple> views;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& coarse_cells) {
          const Box region = mesh::to_centering(coarse_cells, comp)
                                 .intersect(dst.component(k).index_box());
          const Box fbox = src.component(k).index_box();
          // A coarse x-face (I,J) averages fine faces (I*r, J*r + jj).
          Box coarse_ok;
          if (k == 0) {
            coarse_ok = Box(
                IntVector(mesh::floor_div(fbox.lower().i + ri - 1, ri),
                          mesh::floor_div(fbox.lower().j + rj - 1, rj)),
                IntVector(mesh::floor_div(fbox.upper().i, ri),
                          mesh::floor_div(fbox.upper().j - rj + 1, rj)));
          } else {
            coarse_ok = Box(
                IntVector(mesh::floor_div(fbox.lower().i + ri - 1, ri),
                          mesh::floor_div(fbox.lower().j + rj - 1, rj)),
                IntVector(mesh::floor_div(fbox.upper().i - ri + 1, ri),
                          mesh::floor_div(fbox.upper().j, rj)));
          }
          return region.intersect(coarse_ok);
        },
        /*use_aux=*/false, views);
    const ViewTriple* pv = views.data();
    const bool x_normal = (k == 0);
    device.launch_batched(
        stream, segs, gather_cost(ratio), [=](std::size_t s, int i, int j) {
          const util::View& c = pv[s].c;
          const util::View& f = pv[s].f;
          double sum = 0.0;
          if (x_normal) {
            for (int jj = 0; jj < rj; ++jj) {
              sum += f(i * ri, j * rj + jj);
            }
            c(i, j) = sum / rj;
          } else {
            for (int ii = 0; ii < ri; ++ii) {
              sum += f(i * ri + ii, j * rj);
            }
            c(i, j) = sum / ri;
          }
        });
  }
}

}  // namespace ramr::geom
