#include "amr/tag_buffer.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace ramr::amr {

using mesh::Box;
using mesh::IntVector;

DeviceTagData::DeviceTagData(vgpu::Device& device, const Box& cell_box)
    : device_(&device),
      box_(cell_box),
      tags_(device, cell_box.size()),
      stream_(device, "tags") {
  RAMR_REQUIRE(!cell_box.empty(), "tag data over empty box");
  clear();
}

util::ArrayView2D<int> DeviceTagData::device_view() {
  return util::ArrayView2D<int>(tags_.device_ptr(), box_.lower().i,
                                box_.lower().j, box_.width(), box_.height());
}

void DeviceTagData::clear() {
  int* p = tags_.device_ptr();
  device_->launch(stream_, box_.size(), vgpu::KernelCost{0.0, 4.0},
                  [p](std::int64_t t) { p[t] = 0; });
}

bool DeviceTagData::any_tagged() {
  // Device-side OR-reduction, then a single scalar readback.
  vgpu::DeviceBuffer<int> flag(*device_, 1);
  int* f = flag.device_ptr();
  device_->launch(stream_, 1, vgpu::KernelCost{0.0, 4.0},
                  [f](std::int64_t) { f[0] = 0; });
  const int* p = tags_.device_ptr();
  device_->charge_reduction(box_.size(), sizeof(int));
  util::ThreadPool::global().parallel_for(
      box_.size(), [&](std::int64_t b, std::int64_t e) {
        int local = 0;
        for (std::int64_t t = b; t < e; ++t) {
          local |= p[t];
        }
        if (local != 0) {
          __atomic_store_n(f, 1, __ATOMIC_RELAXED);
        }
      });
  int result = 0;
  flag.download(&result, 1);
  return result != 0;
}

std::vector<std::uint32_t> DeviceTagData::download_compressed() {
  const std::int64_t n = box_.size();
  const std::int64_t words = (n + 31) / 32;
  vgpu::DeviceBuffer<std::uint32_t> packed(*device_, words);
  const int* p = tags_.device_ptr();
  std::uint32_t* w = packed.device_ptr();
  // One device thread per output word: reads 32 ints, writes one word.
  device_->launch(stream_, words, vgpu::KernelCost{32.0, 32.0 * 4.0 + 4.0},
                  [=](std::int64_t t) {
                    std::uint32_t bits = 0;
                    const std::int64_t base = t * 32;
                    for (int b = 0; b < 32 && base + b < n; ++b) {
                      if (p[base + b] != 0) {
                        bits |= (1u << b);
                      }
                    }
                    w[t] = bits;
                  });
  std::vector<std::uint32_t> host(static_cast<std::size_t>(words));
  packed.download(host.data(), words);
  return host;
}

std::vector<int> DeviceTagData::download_raw() {
  std::vector<int> host(static_cast<std::size_t>(box_.size()));
  tags_.download(host.data(), box_.size());
  return host;
}

// ---------------------------------------------------------------------------

namespace {

/// Calls f(w, mask) for every word w of a padded row that holds a cell of
/// the region-relative column range [c0, c1]; mask selects those cells.
template <typename F>
void for_each_word(int c0, int c1, F&& f) {
  for (int w = c0 >> 6; w <= c1 >> 6; ++w) {
    const int a = std::max(c0 - 64 * w, 0);
    const int e = std::min(c1 - 64 * w, 63);
    f(w, (~std::uint64_t{0} << a) & (~std::uint64_t{0} >> (63 - e)));
  }
}

/// r[c] |= r[c - 1] over one padded row (cells move one column up).
/// The bit pushed into the padding must be masked off by the caller.
void or_shifted_up(std::uint64_t* r, int nw) {
  // Descending, so every word read is still unmodified.
  for (int w = nw - 1; w > 0; --w) {
    r[w] |= r[w] << 1 | r[w - 1] >> 63;
  }
  r[0] |= r[0] << 1;
}

/// r[c] |= r[c + 1] over one padded row (cells move one column down).
void or_shifted_down(std::uint64_t* r, int nw) {
  // Ascending, so every word read is still unmodified.
  for (int w = 0; w + 1 < nw; ++w) {
    r[w] |= r[w] >> 1 | r[w + 1] << 63;
  }
  r[nw - 1] |= r[nw - 1] >> 1;
}

}  // namespace

TagBitmap::TagBitmap(const Box& region)
    : region_(region), words_per_row_((region.width() + 63) / 64) {
  RAMR_REQUIRE(!region.empty(), "tag bitmap over empty region");
  bits_.assign(static_cast<std::size_t>(region.height()) *
                   static_cast<std::size_t>(words_per_row_),
               0u);
}

void TagBitmap::set(int i, int j) {
  RAMR_REQUIRE(region_.contains(IntVector(i, j)),
               "tag (" << i << "," << j << ") outside " << region_);
  set_cell(i - region_.lower().i, j);
}

void TagBitmap::set_box(const Box& box) {
  RAMR_REQUIRE(region_.contains(box),
               "box " << box << " outside tag region " << region_);
  if (box.empty()) {
    return;
  }
  const int c0 = box.lower().i - region_.lower().i;
  const int c1 = box.upper().i - region_.lower().i;
  for (int j = box.lower().j; j <= box.upper().j; ++j) {
    std::uint64_t* r = row(j);
    for_each_word(c0, c1, [r](int w, std::uint64_t mask) { r[w] |= mask; });
  }
}

void TagBitmap::merge_compressed(const Box& patch_box,
                                 const std::vector<std::uint32_t>& words) {
  RAMR_REQUIRE(region_.contains(patch_box),
               "patch " << patch_box << " outside tag region " << region_);
  const std::int64_t n = patch_box.size();
  RAMR_REQUIRE(static_cast<std::int64_t>(words.size()) == (n + 31) / 32,
               "compressed tag size mismatch");
  const int width = patch_box.width();
  const int c0 = patch_box.lower().i - region_.lower().i;
  for (std::size_t k = 0; k < words.size(); ++k) {
    for (std::uint32_t bits = words[k]; bits != 0; bits &= bits - 1) {
      const std::int64_t t =
          static_cast<std::int64_t>(k << 5) + std::countr_zero(bits);
      if (t >= n) {
        break;
      }
      set_cell(c0 + static_cast<int>(t % width),
               patch_box.lower().j + static_cast<int>(t / width));
    }
  }
}

void TagBitmap::buffer(int b) {
  if (b <= 0) {
    return;
  }
  // Separable dilation, clipped to the region: first every row by
  // [-b, b] columns, then every column by [-b, b] rows, one cell per pass.
  const int nw = words_per_row_;
  const int height = region_.height();
  const std::uint64_t last_word_mask =
      ~std::uint64_t{0} >> (64 * nw - region_.width());
  for (int j = region_.lower().j; j <= region_.upper().j; ++j) {
    std::uint64_t* r = row(j);
    for (int pass = 0; pass < b; ++pass) or_shifted_up(r, nw);
    r[nw - 1] &= last_word_mask;
    for (int pass = 0; pass < b; ++pass) or_shifted_down(r, nw);
  }
  std::uint64_t* base = bits_.data();
  const auto or_row = [&](int dst, int src) {
    std::uint64_t* d = base + static_cast<std::size_t>(dst) * nw;
    const std::uint64_t* s = base + static_cast<std::size_t>(src) * nw;
    for (int w = 0; w < nw; ++w) {
      d[w] |= s[w];
    }
  };
  // Ascending reads only rows above, descending only rows below, so both
  // run in place.
  for (int pass = 0; pass < b; ++pass) {
    for (int k = 0; k + 1 < height; ++k) or_row(k, k + 1);
  }
  for (int pass = 0; pass < b; ++pass) {
    for (int k = height - 1; k > 0; --k) or_row(k, k - 1);
  }
}

std::int64_t TagBitmap::count_tags() const {
  std::int64_t count = 0;
  for (const std::uint64_t w : bits_) {
    count += std::popcount(w);
  }
  return count;
}

std::int64_t TagBitmap::count_tags(const Box& within) const {
  const Box r = region_.intersect(within);
  if (r.empty()) {
    return 0;
  }
  const int c0 = r.lower().i - region_.lower().i;
  const int c1 = r.upper().i - region_.lower().i;
  std::int64_t count = 0;
  for (int j = r.lower().j; j <= r.upper().j; ++j) {
    const std::uint64_t* words = row(j);
    for_each_word(c0, c1, [&](int w, std::uint64_t mask) {
      count += std::popcount(words[w] & mask);
    });
  }
  return count;
}

TagSignatures TagBitmap::signatures(const Box& box) const {
  RAMR_REQUIRE(region_.contains(box),
               "box " << box << " outside tag region " << region_);
  TagSignatures s;
  s.x.assign(static_cast<std::size_t>(box.width()), 0);
  s.y.assign(static_cast<std::size_t>(box.height()), 0);
  const int c0 = box.lower().i - region_.lower().i;
  const int c1 = box.upper().i - region_.lower().i;
  for (int j = box.lower().j; j <= box.upper().j; ++j) {
    const std::uint64_t* words = row(j);
    std::int64_t count = 0;
    // Popcount per word for the row; the set bits walked with ctz for
    // the columns.
    for_each_word(c0, c1, [&](int w, std::uint64_t mask) {
      std::uint64_t bits = words[w] & mask;
      count += std::popcount(bits);
      for (; bits != 0; bits &= bits - 1) {
        ++s.x[static_cast<std::size_t>(64 * w + std::countr_zero(bits) - c0)];
      }
    });
    s.y[static_cast<std::size_t>(j - box.lower().j)] = count;
    s.total += count;
  }
  return s;
}

}  // namespace ramr::amr
