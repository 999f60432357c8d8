// Refinement tags and their bit-compressed transfer (paper §IV-C).
//
// Tagging runs as a device kernel writing one int per cell; to move the
// result to the host for SAMRAI's clustering, the paper compresses the
// int array to a bit array (32x smaller) on the device and additionally
// keeps a per-patch "any tagged" flag so untouched patches transfer
// nothing at all. This module implements both the device tag array and
// the compressed host-side representation.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/box.hpp"
#include "util/array_view.hpp"
#include "vgpu/device_buffer.hpp"

namespace ramr::amr {

/// Device-resident int tag array over a cell box.
class DeviceTagData {
 public:
  DeviceTagData(vgpu::Device& device, const mesh::Box& cell_box);

  const mesh::Box& box() const { return box_; }
  vgpu::Device& device() const { return *device_; }

  /// Device view for tagging kernels (1 = refine, 0 = keep).
  util::ArrayView2D<int> device_view();

  /// Clears all tags (device kernel).
  void clear();

  /// Device-side reduction: true when any cell is tagged. The flag is a
  /// single int transfer, so untagged patches cost 4 bytes (paper: "if no
  /// cells in a patch are flagged ... we don't copy data").
  bool any_tagged();

  /// Compresses the int tags to bits on the device and downloads the bit
  /// array (one PCIe transfer of ceil(n/32) words). Returns the packed
  /// words in row-major cell order.
  std::vector<std::uint32_t> download_compressed();

  /// Raw int download (the naive path; kept for the ablation bench).
  std::vector<int> download_raw();

 private:
  vgpu::Device* device_;
  mesh::Box box_;
  vgpu::DeviceBuffer<int> tags_;
  vgpu::Stream stream_;
};

/// Tag counts of a box per column and per row.
struct TagSignatures {
  std::vector<std::int64_t> x;  // per column, indexed from box.lower.i
  std::vector<std::int64_t> y;  // per row, indexed from box.lower.j
  std::int64_t total = 0;
};

/// Host-side tag bitmap over an arbitrary region (the union of a level's
/// patches), assembled from per-patch compressed tag arrays gathered from
/// all ranks. Feeds Berger-Rigoutsos clustering.
///
/// Each row is padded to whole 64-bit words, so counting, box fills and
/// the buffer dilation work a word (64 cells) at a time. Bit k of word w
/// of row j is cell (region.lower.i + 64 w + k, j); padding bits past the
/// last column are always zero.
class TagBitmap {
 public:
  explicit TagBitmap(const mesh::Box& region);

  const mesh::Box& region() const { return region_; }

  bool is_tagged(int i, int j) const {
    if (!region_.contains(mesh::IntVector(i, j))) {
      return false;
    }
    const int c = i - region_.lower().i;
    return row(j)[c >> 6] >> (c & 63) & 1u;
  }

  void set(int i, int j);

  /// Tags every cell of `box`, which must lie inside the region.
  void set_box(const mesh::Box& box);

  /// ORs a patch's compressed tag words (as produced by
  /// DeviceTagData::download_compressed) into this bitmap.
  void merge_compressed(const mesh::Box& patch_box,
                        const std::vector<std::uint32_t>& words);

  /// Grows every tag into a (2b+1)^2 neighbourhood, ensuring features
  /// cannot escape the refined region before the next regrid (the tag
  /// buffer of Berger-Colella AMR).
  void buffer(int b);

  std::int64_t count_tags() const;
  std::int64_t count_tags(const mesh::Box& within) const;

  /// The Berger-Rigoutsos signatures of `box`, which must lie inside the
  /// region, in one pass.
  TagSignatures signatures(const mesh::Box& box) const;

 private:
  /// Tags region-relative column c of row j, unchecked.
  void set_cell(int c, int j) {
    row(j)[c >> 6] |= std::uint64_t{1} << (c & 63);
  }

  /// The padded words of row j (region.lower.j <= j <= region.upper.j).
  const std::uint64_t* row(int j) const {
    return bits_.data() + static_cast<std::size_t>(j - region_.lower().j) *
                              static_cast<std::size_t>(words_per_row_);
  }
  std::uint64_t* row(int j) {
    return bits_.data() + static_cast<std::size_t>(j - region_.lower().j) *
                              static_cast<std::size_t>(words_per_row_);
  }

  mesh::Box region_;
  int words_per_row_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace ramr::amr
