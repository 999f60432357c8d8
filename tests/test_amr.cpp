// Unit and property tests for the AMR machinery: device tag data with
// bit compression (paper §IV-C), tag bitmaps and buffering,
// Berger-Rigoutsos clustering, box chopping and load balancing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

#include "amr/berger_rigoutsos.hpp"
#include "amr/load_balancer.hpp"
#include "amr/tag_buffer.hpp"
#include "vgpu/device_spec.hpp"

namespace ramr::amr {
namespace {

using mesh::Box;
using mesh::IntVector;

class TagDataTest : public ::testing::Test {
 protected:
  vgpu::Device dev_{vgpu::tesla_k20x()};
};

TEST_F(TagDataTest, StartsClearAndDetectsTags) {
  DeviceTagData tags(dev_, Box(0, 0, 31, 31));
  EXPECT_FALSE(tags.any_tagged());
  auto view = tags.device_view();
  vgpu::Stream s(dev_, "test");
  dev_.launch(s, 1, vgpu::KernelCost{0, 4},
              [=](std::int64_t) { view(17, 5) = 1; });
  EXPECT_TRUE(tags.any_tagged());
  tags.clear();
  EXPECT_FALSE(tags.any_tagged());
}

TEST_F(TagDataTest, CompressedMatchesRaw) {
  DeviceTagData tags(dev_, Box(2, 3, 40, 35));
  auto view = tags.device_view();
  vgpu::Stream s(dev_, "test");
  const Box box = tags.box();
  dev_.launch2d(s, box.lower().i, box.lower().j, box.width(), box.height(),
                vgpu::KernelCost{1, 4}, [=](int i, int j) {
                  view(i, j) = ((i * 7 + j * 3) % 5 == 0) ? 1 : 0;
                });
  const auto raw = tags.download_raw();
  const auto packed = tags.download_compressed();
  for (std::size_t t = 0; t < raw.size(); ++t) {
    const bool bit = (packed[t >> 5] >> (t & 31)) & 1u;
    ASSERT_EQ(bit, raw[t] != 0) << "cell " << t;
  }
}

TEST_F(TagDataTest, CompressionIs32xSmaller) {
  DeviceTagData tags(dev_, Box(0, 0, 255, 255));
  auto before = dev_.transfers();
  (void)tags.download_compressed();
  const auto compressed_bytes = (dev_.transfers() - before).d2h_bytes;
  before = dev_.transfers();
  (void)tags.download_raw();
  const auto raw_bytes = (dev_.transfers() - before).d2h_bytes;
  EXPECT_EQ(raw_bytes, 256u * 256u * 4u);
  EXPECT_EQ(compressed_bytes, 256u * 256u / 8u);
  EXPECT_EQ(raw_bytes / compressed_bytes, 32u);
}

TEST(TagBitmap, SetAndQuery) {
  TagBitmap tags(Box(-4, -4, 10, 10));
  EXPECT_FALSE(tags.is_tagged(0, 0));
  tags.set(0, 0);
  tags.set(-4, -4);
  tags.set(10, 10);
  EXPECT_TRUE(tags.is_tagged(0, 0));
  EXPECT_TRUE(tags.is_tagged(-4, -4));
  EXPECT_TRUE(tags.is_tagged(10, 10));
  EXPECT_FALSE(tags.is_tagged(1, 0));
  EXPECT_FALSE(tags.is_tagged(-5, 0));  // outside: false, not UB
  EXPECT_EQ(tags.count_tags(), 3);
}

TEST(TagBitmap, MergeCompressedPlacesBitsCorrectly) {
  TagBitmap bitmap(Box(0, 0, 15, 15));
  // A 6x2 patch at (4, 7) with cells 0 and 11 (last) tagged.
  const Box patch(4, 7, 9, 8);
  std::vector<std::uint32_t> words((patch.size() + 31) / 32, 0u);
  words[0] |= 1u << 0;
  words[0] |= 1u << 11;
  bitmap.merge_compressed(patch, words);
  EXPECT_TRUE(bitmap.is_tagged(4, 7));   // flat 0
  EXPECT_TRUE(bitmap.is_tagged(9, 8));   // flat 11
  EXPECT_EQ(bitmap.count_tags(), 2);
}

TEST(TagBitmap, BufferGrowsNeighbourhood) {
  TagBitmap tags(Box(0, 0, 20, 20));
  tags.set(10, 10);
  tags.buffer(2);
  EXPECT_EQ(tags.count_tags(), 25);  // 5x5 block
  EXPECT_TRUE(tags.is_tagged(8, 8));
  EXPECT_TRUE(tags.is_tagged(12, 12));
  EXPECT_FALSE(tags.is_tagged(13, 10));
}

TEST(TagBitmap, BufferClipsAtRegionEdge) {
  TagBitmap tags(Box(0, 0, 10, 10));
  tags.set(0, 0);
  tags.buffer(3);
  EXPECT_EQ(tags.count_tags(), 16);  // 4x4 corner block
}

// Differential check against a one-byte-per-cell reference bitmap, on
// seeded random patterns over regions whose widths straddle word edges.

/// The reference: every operation walks cells one at a time.
class NaiveBitmap {
 public:
  explicit NaiveBitmap(const Box& region)
      : region_(region), cells_(static_cast<std::size_t>(region.size()), 0) {}

  bool is_tagged(int i, int j) const {
    return region_.contains(IntVector(i, j)) && cells_[index(i, j)] != 0;
  }
  void set(int i, int j) { cells_[index(i, j)] = 1; }
  void set_box(const Box& box) {
    for (int j = box.lower().j; j <= box.upper().j; ++j) {
      for (int i = box.lower().i; i <= box.upper().i; ++i) {
        set(i, j);
      }
    }
  }
  void merge_compressed(const Box& patch,
                        const std::vector<std::uint32_t>& words) {
    for (std::int64_t t = 0; t < patch.size(); ++t) {
      if ((words[static_cast<std::size_t>(t >> 5)] >> (t & 31)) & 1u) {
        set(patch.lower().i + static_cast<int>(t % patch.width()),
            patch.lower().j + static_cast<int>(t / patch.width()));
      }
    }
  }
  void buffer(int b) {
    NaiveBitmap grown = *this;
    for (int j = region_.lower().j; j <= region_.upper().j; ++j) {
      for (int i = region_.lower().i; i <= region_.upper().i; ++i) {
        if (!is_tagged(i, j)) continue;
        for (int dj = -b; dj <= b; ++dj) {
          for (int di = -b; di <= b; ++di) {
            if (region_.contains(IntVector(i + di, j + dj))) {
              grown.set(i + di, j + dj);
            }
          }
        }
      }
    }
    *this = std::move(grown);
  }
  std::int64_t count_tags(const Box& within) const {
    std::int64_t n = 0;
    const Box r = region_.intersect(within);
    for (int j = r.lower().j; j <= r.upper().j; ++j) {
      for (int i = r.lower().i; i <= r.upper().i; ++i) {
        n += is_tagged(i, j) ? 1 : 0;
      }
    }
    return n;
  }

 private:
  std::size_t index(int i, int j) const {
    EXPECT_TRUE(region_.contains(IntVector(i, j)));
    return static_cast<std::size_t>(j - region_.lower().j) *
               static_cast<std::size_t>(region_.width()) +
           static_cast<std::size_t>(i - region_.lower().i);
  }

  Box region_;
  std::vector<char> cells_;
};

/// A random box with corners in [lo - margin, hi + margin] of `region`.
Box random_box(std::mt19937& rng, const Box& region, int margin) {
  std::uniform_int_distribution<int> di(region.lower().i - margin,
                                        region.upper().i + margin);
  std::uniform_int_distribution<int> dj(region.lower().j - margin,
                                        region.upper().j + margin);
  const int i0 = di(rng), i1 = di(rng), j0 = dj(rng), j1 = dj(rng);
  return Box(std::min(i0, i1), std::min(j0, j1), std::max(i0, i1),
             std::max(j0, j1));
}

void expect_same_bitmap(const TagBitmap& fast, const NaiveBitmap& naive,
                        const std::string& what) {
  const Box region = fast.region();
  const Box halo = region.grow(1);
  for (int j = halo.lower().j; j <= halo.upper().j; ++j) {
    for (int i = halo.lower().i; i <= halo.upper().i; ++i) {
      ASSERT_EQ(fast.is_tagged(i, j), naive.is_tagged(i, j))
          << what << ": cell (" << i << "," << j << ") of " << region;
    }
  }
  EXPECT_EQ(fast.count_tags(), naive.count_tags(region)) << what;
}

class TagBitmapDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TagBitmapDifferential, MatchesPerCellReference) {
  const int width = GetParam();
  std::mt19937 rng(static_cast<unsigned>(1000 + width));
  for (const int height : {1, 5, 37}) {
    // Negative lower corner, not aligned to a word.
    const Box region(-67, -3, -67 + width - 1, -3 + height - 1);
    for (const int b : {1, 2, 3, 64, 70}) {
      for (const double density : {0.002, 0.05, 0.4}) {
        const std::string what = "region " + std::to_string(width) + "x" +
                                 std::to_string(height) + " b=" +
                                 std::to_string(b) + " density=" +
                                 std::to_string(density);
        TagBitmap fast(region);
        NaiveBitmap naive(region);
        std::bernoulli_distribution tagged(density);

        // Single cells.
        for (int j = region.lower().j; j <= region.upper().j; ++j) {
          for (int i = region.lower().i; i <= region.upper().i; ++i) {
            if (tagged(rng) && tagged(rng)) {
              fast.set(i, j);
              naive.set(i, j);
            }
          }
        }
        // Boxes clipped by the region.
        for (int k = 0; k < 2; ++k) {
          const Box box = random_box(rng, region, 10).intersect(region);
          fast.set_box(box);
          naive.set_box(box);
        }
        // Patches at odd offsets inside the region.
        for (int k = 0; k < 3; ++k) {
          const Box patch = random_box(rng, region, 0);
          std::vector<std::uint32_t> words(
              static_cast<std::size_t>((patch.size() + 31) / 32), 0u);
          for (std::int64_t t = 0; t < patch.size(); ++t) {
            if (tagged(rng)) {
              words[static_cast<std::size_t>(t >> 5)] |= 1u << (t & 31);
            }
          }
          // Bits past the last cell are not tags and must be ignored.
          if (patch.size() % 32 != 0) {
            words.back() |= ~0u << (patch.size() % 32);
          }
          fast.merge_compressed(patch, words);
          naive.merge_compressed(patch, words);
        }
        expect_same_bitmap(fast, naive, what + " before buffer");
        for (int k = 0; k < 8; ++k) {
          const Box within = random_box(rng, region, 70);
          ASSERT_EQ(fast.count_tags(within), naive.count_tags(within))
              << what << " within " << within;
        }

        fast.buffer(b);
        naive.buffer(b);
        expect_same_bitmap(fast, naive, what + " after buffer");
        for (int k = 0; k < 8; ++k) {
          const Box within = random_box(rng, region, 70);
          ASSERT_EQ(fast.count_tags(within), naive.count_tags(within))
              << what << " within " << within << " after buffer";
          const Box box = within.intersect(region);
          if (box.empty()) continue;
          const TagSignatures s = fast.signatures(box);
          EXPECT_EQ(s.total, naive.count_tags(box)) << what << " " << box;
          for (int i = box.lower().i; i <= box.upper().i; ++i) {
            ASSERT_EQ(s.x[static_cast<std::size_t>(i - box.lower().i)],
                      naive.count_tags(Box(i, box.lower().j, i, box.upper().j)))
                << what << " column " << i << " of " << box;
          }
          for (int j = box.lower().j; j <= box.upper().j; ++j) {
            ASSERT_EQ(s.y[static_cast<std::size_t>(j - box.lower().j)],
                      naive.count_tags(Box(box.lower().i, j, box.upper().i, j)))
                << what << " row " << j << " of " << box;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, TagBitmapDifferential,
                         ::testing::Values(1, 63, 64, 65, 129));

TEST(TagBitmap, SetBoxFillsExactlyTheBox) {
  TagBitmap tags(Box(-70, -2, 80, 5));
  tags.set_box(Box(-64, 0, 63, 1));  // 128 columns across three words
  EXPECT_EQ(tags.count_tags(), 128 * 2);
  EXPECT_TRUE(tags.is_tagged(-64, 0));
  EXPECT_TRUE(tags.is_tagged(63, 1));
  EXPECT_FALSE(tags.is_tagged(-65, 0));
  EXPECT_FALSE(tags.is_tagged(64, 1));
  EXPECT_FALSE(tags.is_tagged(0, 2));
  tags.set_box(Box());  // empty: no-op
  EXPECT_EQ(tags.count_tags(), 128 * 2);
}

// ---------------------------------------------------------------------------
// Berger-Rigoutsos

ClusterParams loose_params() {
  ClusterParams p;
  p.efficiency = 0.7;
  p.min_size = 2;
  return p;
}

std::int64_t covered_tags(const TagBitmap& tags, const std::vector<Box>& boxes) {
  std::int64_t n = 0;
  for (const Box& b : boxes) {
    n += tags.count_tags(b);
  }
  return n;
}

TEST(BergerRigoutsos, EmptyTagsYieldNoBoxes) {
  TagBitmap tags(Box(0, 0, 31, 31));
  EXPECT_TRUE(berger_rigoutsos(tags, tags.region(), loose_params()).empty());
}

TEST(BergerRigoutsos, SinglePointYieldsTightBox) {
  TagBitmap tags(Box(0, 0, 31, 31));
  tags.set(13, 7);
  const auto boxes = berger_rigoutsos(tags, tags.region(), loose_params());
  ASSERT_EQ(boxes.size(), 1u);
  EXPECT_EQ(boxes.front(), Box(13, 7, 13, 7));
}

TEST(BergerRigoutsos, SeparatedClustersSplit) {
  TagBitmap tags(Box(0, 0, 63, 63));
  for (int j = 2; j <= 6; ++j) {
    for (int i = 2; i <= 6; ++i) {
      tags.set(i, j);
    }
  }
  for (int j = 50; j <= 55; ++j) {
    for (int i = 50; i <= 55; ++i) {
      tags.set(i, j);
    }
  }
  const auto boxes = berger_rigoutsos(tags, tags.region(), loose_params());
  ASSERT_EQ(boxes.size(), 2u);
  // Disjoint and tag-tight.
  EXPECT_TRUE(boxes[0].intersect(boxes[1]).empty());
  EXPECT_EQ(covered_tags(tags, boxes), tags.count_tags());
}

/// The 64x64 tag patterns of the property tests.
TagBitmap property_pattern(int pattern) {
  const int n = 64;
  TagBitmap tags(Box(0, 0, n - 1, n - 1));
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      bool tag = false;
      switch (pattern) {
        case 0:  // diagonal band
          tag = std::abs(i - j) <= 2;
          break;
        case 1:  // ring
          tag = std::fabs(std::hypot(i - 32.0, j - 32.0) - 20.0) <= 2.0;
          break;
        case 2:  // cross
          tag = std::abs(i - 32) <= 1 || std::abs(j - 32) <= 1;
          break;
        case 3:  // sparse dots
          tag = (i % 16 == 3) && (j % 16 == 9);
          break;
      }
      if (tag) {
        tags.set(i, j);
      }
    }
  }
  return tags;
}

class BergerRigoutsosProperty : public ::testing::TestWithParam<int> {};

TEST_P(BergerRigoutsosProperty, CoversAllTagsEfficientlyAndDisjointly) {
  const TagBitmap tags = property_pattern(GetParam());
  ClusterParams params;
  params.efficiency = 0.75;
  params.min_size = 4;
  const auto boxes = berger_rigoutsos(tags, tags.region(), params);
  ASSERT_FALSE(boxes.empty());
  // Every tag covered.
  EXPECT_EQ(covered_tags(tags, boxes), tags.count_tags());
  // Boxes pairwise disjoint.
  for (std::size_t a = 0; a < boxes.size(); ++a) {
    for (std::size_t b = a + 1; b < boxes.size(); ++b) {
      EXPECT_TRUE(boxes[a].intersect(boxes[b]).empty());
    }
  }
  // Aggregate efficiency at least half the target (individual boxes can
  // fall below when the minimum size clips the recursion).
  std::int64_t area = 0;
  for (const Box& b : boxes) {
    area += b.size();
  }
  EXPECT_GE(static_cast<double>(tags.count_tags()) / area,
            0.5 * params.efficiency);
}

// The three-pass Berger-Rigoutsos clustering as it stood before the
// signatures went word-parallel, kept as the reference that pins the
// clustering output box for box, in order.
namespace reference_br {

struct Signatures {
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> y;
  std::int64_t total = 0;
};

Signatures compute_signatures(const TagBitmap& tags, const Box& box) {
  Signatures s;
  s.x.assign(static_cast<std::size_t>(box.width()), 0);
  s.y.assign(static_cast<std::size_t>(box.height()), 0);
  for (int j = box.lower().j; j <= box.upper().j; ++j) {
    for (int i = box.lower().i; i <= box.upper().i; ++i) {
      if (tags.is_tagged(i, j)) {
        ++s.x[static_cast<std::size_t>(i - box.lower().i)];
        ++s.y[static_cast<std::size_t>(j - box.lower().j)];
        ++s.total;
      }
    }
  }
  return s;
}

Box tag_bounding_box(const Box& box, const Signatures& s) {
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

int find_hole(const std::vector<std::int64_t>& sig, int min_size) {
  const int n = static_cast<int>(sig.size());
  for (int k = min_size - 1; k < n - min_size; ++k) {
    if (sig[static_cast<std::size_t>(k)] == 0 ||
        sig[static_cast<std::size_t>(k + 1)] == 0) {
      return k;
    }
  }
  return -1;
}

int find_inflection(const std::vector<std::int64_t>& sig, int min_size) {
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
  const Signatures s = compute_signatures(tags, candidate);
  if (s.total == 0) {
    return;
  }
  const Box box = tag_bounding_box(candidate, s);
  const double efficiency =
      static_cast<double>(tags.count_tags(box)) / static_cast<double>(box.size());
  const bool small = box.width() <= 2 * params.min_size &&
                     box.height() <= 2 * params.min_size;
  if ((efficiency >= params.efficiency && box.size() <= params.max_box_cells) ||
      (small && box.size() <= params.max_box_cells)) {
    out.push_back(box);
    return;
  }

  const Signatures sb = compute_signatures(tags, box);
  const bool x_first = box.width() >= box.height();
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool along_x = (attempt == 0) ? x_first : !x_first;
    const auto& sig = along_x ? sb.x : sb.y;
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
  out.push_back(box);
}

std::vector<Box> berger_rigoutsos(const TagBitmap& tags, const Box& within,
                                  const ClusterParams& params) {
  std::vector<Box> out;
  const Box region = tags.region().intersect(within);
  if (!region.empty()) {
    cluster_recursive(tags, region, params, out);
  }
  return out;
}

}  // namespace reference_br

std::vector<ClusterParams> pinned_param_sets() {
  std::vector<ClusterParams> sets(4);
  sets[0] = ClusterParams{};  // 0.75, 4, unbounded
  sets[1] = loose_params();   // 0.7, 2
  sets[2].efficiency = 0.9;
  sets[2].min_size = 3;
  sets[2].max_box_cells = 256;
  sets[3].efficiency = 0.5;
  sets[3].min_size = 8;
  sets[3].max_box_cells = 1024;
  return sets;
}

void expect_reference_clustering(const TagBitmap& tags, const Box& within,
                                 const std::string& what) {
  for (const ClusterParams& p : pinned_param_sets()) {
    const auto expected = reference_br::berger_rigoutsos(tags, within, p);
    const auto actual = berger_rigoutsos(tags, within, p);
    EXPECT_EQ(actual, expected)
        << what << " efficiency=" << p.efficiency << " min_size=" << p.min_size
        << " max_box_cells=" << p.max_box_cells;
  }
}

TEST_P(BergerRigoutsosProperty, MatchesThreePassReference) {
  const TagBitmap tags = property_pattern(GetParam());
  expect_reference_clustering(tags, tags.region(), "pattern");
  expect_reference_clustering(tags, Box(5, -3, 50, 40), "clipped pattern");
}

TEST(BergerRigoutsos, MatchesThreePassReferenceOnRandomBlobs) {
  std::mt19937 rng(20261020u);
  for (int trial = 0; trial < 12; ++trial) {
    const Box region(-37, -11, -37 + 60 + 13 * trial, -11 + 50 + 7 * trial);
    TagBitmap tags(region);
    std::uniform_int_distribution<int> ci(region.lower().i, region.upper().i);
    std::uniform_int_distribution<int> cj(region.lower().j, region.upper().j);
    std::uniform_real_distribution<double> radius(1.0, 12.0);
    std::bernoulli_distribution speckle(0.7);
    for (int blob = 0; blob < 1 + trial % 6; ++blob) {
      const int x = ci(rng);
      const int y = cj(rng);
      const double r = radius(rng);
      for (int j = region.lower().j; j <= region.upper().j; ++j) {
        for (int i = region.lower().i; i <= region.upper().i; ++i) {
          if (std::hypot(i - x, j - y) <= r && speckle(rng)) {
            tags.set(i, j);
          }
        }
      }
    }
    expect_reference_clustering(tags, region,
                                "random blobs trial " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, BergerRigoutsosProperty,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Load balancing

TEST(ChopBoxes, RespectsMaxSizeAndPreservesArea) {
  BalanceParams p;
  p.max_patch_cells = 100;
  p.min_size = 4;
  const std::vector<Box> in = {Box(0, 0, 63, 63), Box(100, 0, 103, 3)};
  const auto out = chop_boxes(in, p);
  std::int64_t area = 0;
  for (const Box& b : out) {
    EXPECT_LE(b.size(), 100);
    area += b.size();
  }
  EXPECT_EQ(area, 64 * 64 + 16);
}

TEST(ChopBoxes, StopsAtMinimumSize) {
  BalanceParams p;
  p.max_patch_cells = 4;  // unreachable with min_size 4
  p.min_size = 4;
  const auto out = chop_boxes({Box(0, 0, 6, 6)}, p);
  for (const Box& b : out) {
    EXPECT_GE(std::min(b.width(), b.height()), 3);  // 7 splits into 4+3
  }
}

TEST(ChopBoxes, MinSizeBoundaryNeverProducesUndersizedPieces) {
  BalanceParams p;
  p.max_patch_cells = 16;
  p.min_size = 4;
  // 8x8 splits exactly once per axis into four 4x4 pieces — the min_size
  // boundary case where both halves land exactly at the floor.
  const auto exact = chop_boxes({Box(0, 0, 7, 7)}, p);
  EXPECT_EQ(exact.size(), 4u);
  std::int64_t area = 0;
  for (const Box& b : exact) {
    EXPECT_EQ(b.width(), 4);
    EXPECT_EQ(b.height(), 4);
    area += b.size();
  }
  EXPECT_EQ(area, 64);

  // One cell short of splittable: a 7x7 box (width < 2*min_size) must
  // survive unsplit even though it exceeds max_patch_cells.
  const auto stuck = chop_boxes({Box(0, 0, 6, 6)}, p);
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], Box(0, 0, 6, 6));

  // A mixed box splits only along its splittable axis: 8x5 can halve in
  // x but never in y.
  const auto mixed = chop_boxes({Box(0, 0, 7, 4)}, p);
  for (const Box& b : mixed) {
    EXPECT_GE(b.width(), p.min_size);
    EXPECT_EQ(b.height(), 5);
  }
}

TEST(BalanceBoxes, MortonAssignmentInvariantUnderInputPermutation) {
  std::vector<Box> boxes;
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      boxes.emplace_back(20 * i, 20 * j, 20 * i + 10 + i, 20 * j + 12 + j);
    }
  }
  BalanceParams p;
  p.max_patch_cells = 128;
  const auto ref = balance_boxes(boxes, 4, p);
  // Reversed and rotated input orders must produce the identical
  // (box, rank, id) sequence: the Morton sort with its total-order tie
  // break erases the caller's ordering.
  std::vector<Box> reversed(boxes.rbegin(), boxes.rend());
  std::vector<Box> rotated(boxes.begin() + 5, boxes.end());
  rotated.insert(rotated.end(), boxes.begin(), boxes.begin() + 5);
  for (const auto& permuted : {reversed, rotated}) {
    const auto got = balance_boxes(permuted, 4, p);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      EXPECT_EQ(got[n].box, ref[n].box);
      EXPECT_EQ(got[n].owner_rank, ref[n].owner_rank);
      EXPECT_EQ(got[n].global_id, ref[n].global_id);
    }
  }
}

TEST(BalanceBoxes, GreedyAssignmentInvariantUnderInputPermutation) {
  std::vector<Box> boxes;
  boxes.emplace_back(0, 0, 49, 49);
  boxes.emplace_back(100, 0, 139, 39);
  for (int k = 0; k < 7; ++k) {
    boxes.emplace_back(200 + 12 * k, 0, 200 + 12 * k + 7 + k, 9);
  }
  BalanceParams p;
  p.method = BalanceMethod::kGreedy;
  p.max_patch_cells = 1 << 20;  // no chopping
  const auto ref = balance_boxes(boxes, 3, p);
  std::vector<Box> reversed(boxes.rbegin(), boxes.rend());
  std::vector<Box> rotated(boxes.begin() + 4, boxes.end());
  rotated.insert(rotated.end(), boxes.begin(), boxes.begin() + 4);
  for (const auto& permuted : {reversed, rotated}) {
    const auto got = balance_boxes(permuted, 3, p);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t n = 0; n < ref.size(); ++n) {
      EXPECT_EQ(got[n].box, ref[n].box);
      EXPECT_EQ(got[n].owner_rank, ref[n].owner_rank);
      EXPECT_EQ(got[n].global_id, ref[n].global_id);
    }
  }
}

TEST(BalanceBoxes, AssignsEveryBoxWithDenseIds) {
  BalanceParams p;
  p.max_patch_cells = 256;
  const auto patches = balance_boxes({Box(0, 0, 63, 63)}, 4, p);
  EXPECT_EQ(patches.size(), 16u);
  std::int64_t area = 0;
  for (std::size_t n = 0; n < patches.size(); ++n) {
    EXPECT_EQ(patches[n].global_id, static_cast<int>(n));
    EXPECT_GE(patches[n].owner_rank, 0);
    EXPECT_LT(patches[n].owner_rank, 4);
    area += patches[n].box.size();
  }
  EXPECT_EQ(area, 64 * 64);
}

TEST(BalanceBoxes, MortonBalanceIsReasonable) {
  BalanceParams p;
  p.max_patch_cells = 64;
  for (int ranks : {2, 4, 8, 16}) {
    const auto patches = balance_boxes({Box(0, 0, 63, 63)}, ranks, p);
    EXPECT_LT(load_imbalance(patches, ranks), 1.35)
        << ranks << " ranks";
  }
}

TEST(BalanceBoxes, GreedyBalancesBetterOnUnevenBoxes) {
  std::vector<Box> boxes;
  boxes.emplace_back(0, 0, 99, 99);    // big
  for (int k = 0; k < 10; ++k) {
    boxes.emplace_back(200 + 10 * k, 0, 200 + 10 * k + 4, 4);  // small
  }
  BalanceParams greedy;
  greedy.method = BalanceMethod::kGreedy;
  greedy.max_patch_cells = 1 << 20;  // no chopping
  const auto patches = balance_boxes(boxes, 2, greedy);
  // The big box lands alone on one rank; all small ones on the other.
  std::int64_t load[2] = {0, 0};
  for (const auto& gp : patches) {
    load[gp.owner_rank] += gp.box.size();
  }
  EXPECT_EQ(std::max(load[0], load[1]), 100 * 100);
}

TEST(BalanceBoxes, DeterministicAcrossCalls) {
  BalanceParams p;
  p.max_patch_cells = 128;
  const std::vector<Box> boxes = {Box(0, 0, 31, 31), Box(40, 10, 70, 30)};
  const auto a = balance_boxes(boxes, 4, p);
  const auto b = balance_boxes(boxes, 4, p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].box, b[n].box);
    EXPECT_EQ(a[n].owner_rank, b[n].owner_rank);
  }
}

TEST(Morton, PreservesSpatialLocality) {
  // Nearby boxes should have closer codes than far ones (coarse check).
  const auto c00 = morton_code(Box(0, 0, 7, 7));
  const auto c10 = morton_code(Box(8, 0, 15, 7));
  const auto cff = morton_code(Box(1000, 1000, 1007, 1007));
  EXPECT_LT(c10 - c00, cff - c00);
}

}  // namespace
}  // namespace ramr::amr
