#include "amr/berger_rigoutsos.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/error.hpp"

namespace ramr::amr {

using mesh::Box;
using mesh::IntVector;

namespace {

/// Shrinks `box` to the bounding box of its tags (empty when untagged).
Box tag_bounding_box(const Box& box, const TagSignatures& s) {
  if (s.total == 0) {
    return {};
  }
  int ilo = box.lower().i;
  while (s.x[static_cast<std::size_t>(ilo - box.lower().i)] == 0) ++ilo;
  int ihi = box.upper().i;
  while (s.x[static_cast<std::size_t>(ihi - box.lower().i)] == 0) --ihi;
  int jlo = box.lower().j;
  while (s.y[static_cast<std::size_t>(jlo - box.lower().j)] == 0) ++jlo;
  int jhi = box.upper().j;
  while (s.y[static_cast<std::size_t>(jhi - box.lower().j)] == 0) --jhi;
  return Box(ilo, jlo, ihi, jhi);
}

/// A split position along one axis, expressed as the last index of the
/// lower part in box-local coordinates; -1 when no acceptable split.
int find_hole(std::span<const std::int64_t> sig, int min_size) {
  const int n = static_cast<int>(sig.size());
  for (int k = min_size - 1; k < n - min_size; ++k) {
    if (sig[static_cast<std::size_t>(k)] == 0 ||
        sig[static_cast<std::size_t>(k + 1)] == 0) {
      return k;
    }
  }
  return -1;
}

/// Strongest zero crossing of the discrete Laplacian of the signature.
int find_inflection(std::span<const std::int64_t> sig, int min_size) {
  const int n = static_cast<int>(sig.size());
  if (n < 2 * min_size || n < 4) {
    return -1;
  }
  std::vector<std::int64_t> lap(static_cast<std::size_t>(n), 0);
  for (int k = 1; k < n - 1; ++k) {
    lap[static_cast<std::size_t>(k)] =
        sig[static_cast<std::size_t>(k - 1)] - 2 * sig[static_cast<std::size_t>(k)] +
        sig[static_cast<std::size_t>(k + 1)];
  }
  int best = -1;
  std::int64_t best_jump = 0;
  for (int k = std::max(1, min_size - 1); k < std::min(n - 2, n - min_size); ++k) {
    const std::int64_t a = lap[static_cast<std::size_t>(k)];
    const std::int64_t b = lap[static_cast<std::size_t>(k + 1)];
    if ((a <= 0 && b >= 0) || (a >= 0 && b <= 0)) {
      const std::int64_t jump = std::llabs(a - b);
      if (jump > best_jump) {
        best_jump = jump;
        best = k;
      }
    }
  }
  return best;
}

void cluster_recursive(const TagBitmap& tags, const Box& candidate,
                       const ClusterParams& params, std::vector<Box>& out) {
  const TagSignatures s = tags.signatures(candidate);
  if (s.total == 0) {
    return;
  }
  const Box box = tag_bounding_box(candidate, s);
  // Every tag of the candidate lies inside its tag bounding box.
  const double efficiency =
      static_cast<double>(s.total) / static_cast<double>(box.size());
  const bool small = box.width() <= 2 * params.min_size &&
                     box.height() <= 2 * params.min_size;
  if ((efficiency >= params.efficiency && box.size() <= params.max_box_cells) ||
      (small && box.size() <= params.max_box_cells)) {
    out.push_back(box);
    return;
  }

  // The box's signatures are the candidate's, trimmed to the box.
  const auto sbx = std::span(s.x).subspan(
      static_cast<std::size_t>(box.lower().i - candidate.lower().i),
      static_cast<std::size_t>(box.width()));
  const auto sby = std::span(s.y).subspan(
      static_cast<std::size_t>(box.lower().j - candidate.lower().j),
      static_cast<std::size_t>(box.height()));
  // Prefer splitting the longer axis; try hole, then inflection, then
  // midpoint. Split position k: lower part is [lo, lo+k].
  const bool x_first = box.width() >= box.height();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool along_x = (attempt == 0) ? x_first : !x_first;
    const auto sig = along_x ? sbx : sby;
    const int extent = along_x ? box.width() : box.height();
    if (extent < 2 * params.min_size) {
      continue;
    }
    int k = find_hole(sig, params.min_size);
    if (k < 0) {
      k = find_inflection(sig, params.min_size);
    }
    if (k < 0) {
      k = extent / 2 - 1;
    }
    if (k < params.min_size - 1 || k >= extent - params.min_size) {
      continue;
    }
    Box lower_part;
    Box upper_part;
    if (along_x) {
      const int cut = box.lower().i + k;
      lower_part = Box(box.lower(), IntVector(cut, box.upper().j));
      upper_part = Box(IntVector(cut + 1, box.lower().j), box.upper());
    } else {
      const int cut = box.lower().j + k;
      lower_part = Box(box.lower(), IntVector(box.upper().i, cut));
      upper_part = Box(IntVector(box.lower().i, cut + 1), box.upper());
    }
    cluster_recursive(tags, lower_part, params, out);
    cluster_recursive(tags, upper_part, params, out);
    return;
  }
  // No admissible split: accept as-is.
  out.push_back(box);
}

}  // namespace

std::vector<Box> berger_rigoutsos(const TagBitmap& tags, const Box& within,
                                  const ClusterParams& params) {
  RAMR_REQUIRE(params.efficiency > 0.0 && params.efficiency <= 1.0,
               "efficiency must be in (0, 1]");
  RAMR_REQUIRE(params.min_size >= 1, "min_size must be positive");
  std::vector<Box> out;
  const Box region = tags.region().intersect(within);
  if (!region.empty()) {
    cluster_recursive(tags, region, params, out);
  }
  return out;
}

}  // namespace ramr::amr
