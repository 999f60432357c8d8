#include "geom/refine_operators.hpp"

#include <vector>

#include "geom/operator_support.hpp"

namespace ramr::geom {

using mesh::Box;
using mesh::Centering;
using mesh::IntVector;
using pdat::cuda::CudaData;
using xfer::RefineTask;

namespace {

/// Refine kernels read 4 coarse values + write 1 fine value (bilinear) or
/// read 3x3 and write 1 (limited linear): ~40-80 bytes, ~15 flops.
constexpr vgpu::KernelCost kBilinearCost{12.0, 48.0};
constexpr vgpu::KernelCost kLimitedCost{24.0, 88.0};

/// Fine/coarse view pair of one task's component k, indexed by the fused
/// launch's segment id.
struct ViewPair {
  util::View f;
  util::View c;
};

/// Builds the fused launch inputs for component k: one segment per task
/// covering region(task) (empty regions keep their slot) and the
/// matching view pairs.
template <typename RegionFn>
vgpu::SegmentTable gather_component(std::span<const RefineTask> tasks, int k,
                                    RegionFn&& region,
                                    std::vector<ViewPair>& pairs) {
  vgpu::SegmentTable segs;
  pairs.clear();
  pairs.reserve(tasks.size());
  for (const RefineTask& t : tasks) {
    const CudaData& dst = as_cuda(*t.dst);
    const CudaData& src = as_cuda(*t.src);
    const Box r = region(dst, src, t.fine_cells);
    segs.add(r.lower().i, r.lower().j, r.width(), r.height());
    pairs.push_back(ViewPair{dst.device_view(k), src.device_view(k)});
  }
  return segs;
}

}  // namespace

void NodeLinearRefine::refine_batched(std::span<const RefineTask> tasks,
                                      const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "refine");
  const int ri = ratio.i;
  const int rj = ratio.j;

  for (int k = 0; k < as_cuda(*tasks[0].dst).components(); ++k) {
    std::vector<ViewPair> pairs;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& fine_cells) {
          // Node data: a fine node at (i, j) maps to coarse node space via
          // ic = floor(i/r); coincident nodes (remainder 0) need no +1
          // coarse neighbour, so the usable region is computed directly
          // here rather than via writable_fine_region.
          const Box region = mesh::to_centering(fine_cells, Centering::kNode)
                                 .intersect(dst.component(k).index_box());
          // Clip so every read (ic, ic+1 when needed) stays inside the
          // coarse array: fine index range [clo*r, chi*r].
          const Box cbox = src.component(k).index_box();
          const Box fine_ok(cbox.lower() * ratio, cbox.upper() * ratio);
          return region.intersect(fine_ok);
        },
        pairs);
    const ViewPair* pv = pairs.data();
    device.launch_batched(
        stream, segs, kBilinearCost, [=](std::size_t s, int i, int j) {
          const util::View& f = pv[s].f;
          const util::View& c = pv[s].c;
          const int ic = mesh::floor_div(i, ri);
          const int jc = mesh::floor_div(j, rj);
          const int ir = i - ic * ri;
          const int jr = j - jc * rj;
          const double x = static_cast<double>(ir) / ri;
          const double y = static_cast<double>(jr) / rj;
          const int ip = (ir == 0) ? ic : ic + 1;
          const int jp = (jr == 0) ? jc : jc + 1;
          f(i, j) = (c(ic, jc) * (1.0 - x) + c(ip, jc) * x) * (1.0 - y) +
                    (c(ic, jp) * (1.0 - x) + c(ip, jp) * x) * y;
        });
  }
}

void CellConservativeLinearRefine::refine_batched(
    std::span<const RefineTask> tasks, const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "refine");
  const int ri = ratio.i;
  const int rj = ratio.j;

  for (int k = 0; k < as_cuda(*tasks[0].dst).components(); ++k) {
    std::vector<ViewPair> pairs;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& fine_cells) {
          return writable_fine_region(dst, src, fine_cells, ratio,
                                      Centering::kCell, k, stencil_width());
        },
        pairs);
    const ViewPair* pv = pairs.data();
    device.launch_batched(
        stream, segs, kLimitedCost, [=](std::size_t s, int i, int j) {
          const util::View& f = pv[s].f;
          const util::View& c = pv[s].c;
          const int ic = mesh::floor_div(i, ri);
          const int jc = mesh::floor_div(j, rj);
          // Offset of the fine cell centre from the coarse cell centre,
          // in coarse-cell units; offsets over one coarse cell sum to
          // zero, which makes the reconstruction conservative.
          const double xoff = (i - ic * ri + 0.5) / ri - 0.5;
          const double yoff = (j - jc * rj + 0.5) / rj - 0.5;
          const double sx = mc_slope(c(ic - 1, jc), c(ic, jc), c(ic + 1, jc));
          const double sy = mc_slope(c(ic, jc - 1), c(ic, jc), c(ic, jc + 1));
          f(i, j) = c(ic, jc) + sx * xoff + sy * yoff;
        });
  }
}

void SideConservativeLinearRefine::refine_batched(
    std::span<const RefineTask> tasks, const IntVector& ratio) const {
  if (tasks.empty()) {
    return;
  }
  vgpu::Device& device = as_cuda(*tasks[0].dst).device();
  vgpu::Stream stream(device, "refine");
  RAMR_REQUIRE(as_cuda(*tasks[0].dst).components() == 2,
               "side refine requires side data");
  const int ri = ratio.i;
  const int rj = ratio.j;

  for (int k = 0; k < 2; ++k) {
    const Centering comp = (k == 0) ? Centering::kXSide : Centering::kYSide;
    std::vector<ViewPair> pairs;
    const vgpu::SegmentTable segs = gather_component(
        tasks, k,
        [&](const CudaData& dst, const CudaData& src, const Box& fine_cells) {
          const Box region = mesh::to_centering(fine_cells, comp)
                                 .intersect(dst.component(k).index_box());
          // Along the normal axis a fine face interpolates the two
          // bracketing coarse faces; clip so the +1 face read stays in
          // bounds.
          const Box cbox = src.component(k).index_box();
          Box fine_ok;
          if (k == 0) {
            fine_ok = Box(IntVector(cbox.lower().i * ri, cbox.lower().j * rj),
                          IntVector(cbox.upper().i * ri,
                                    (cbox.upper().j + 1) * rj - 1));
          } else {
            fine_ok = Box(IntVector(cbox.lower().i * ri, cbox.lower().j * rj),
                          IntVector((cbox.upper().i + 1) * ri - 1,
                                    cbox.upper().j * rj));
          }
          return region.intersect(fine_ok);
        },
        pairs);
    const ViewPair* pv = pairs.data();
    const bool x_normal = (k == 0);
    device.launch_batched(
        stream, segs, kBilinearCost, [=](std::size_t s, int i, int j) {
          const util::View& f = pv[s].f;
          const util::View& c = pv[s].c;
          const int ic = mesh::floor_div(i, ri);
          const int jc = mesh::floor_div(j, rj);
          if (x_normal) {
            const int ir = i - ic * ri;
            const double x = static_cast<double>(ir) / ri;
            const int ip = (ir == 0) ? ic : ic + 1;
            f(i, j) = c(ic, jc) * (1.0 - x) + c(ip, jc) * x;
          } else {
            const int jr = j - jc * rj;
            const double y = static_cast<double>(jr) / rj;
            const int jp = (jr == 0) ? jc : jc + 1;
            f(i, j) = c(ic, jc) * (1.0 - y) + c(ic, jp) * y;
          }
        });
  }
}

}  // namespace ramr::geom
