// Committed field-hash references. Every example config in
// examples/configs/ runs a short advance that crosses at least one
// regrid, on one and on two ranks, with the synchronous and the
// async-overlap timing model. The FNV-1a hash of every patch's field
// arrays (interiors in each component's index space, all variables,
// patches in (level, global id) order) must equal the table below, so
// any change to the transfer plans, the hydro kernels or the regrid path
// that moves a single bit of a field fails here.
//
// Fields are bit-identical across rank counts and timing models, so the
// four rows of one config carry the same hash. The table was filled from
// the failure messages of one run. If a change is MEANT to move the
// numbers, paste the printed rows over the old ones and say why in the
// change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "app/simulation.hpp"
#include "cfg/config.hpp"
#include "pdat/cuda/cuda_data.hpp"
#include "simmpi/communicator.hpp"

namespace ramr {
namespace {

struct HashCase {
  const char* config;
  int ranks;
  bool async_overlap;
  std::uint64_t hash;
};

// clang-format off
constexpr HashCase kCases[] = {
    {"kelvin_helmholtz", 1, false, 0xa2a8dca13e965e33ull},
    {"kelvin_helmholtz", 1, true, 0xa2a8dca13e965e33ull},
    {"kelvin_helmholtz", 2, false, 0xa2a8dca13e965e33ull},
    {"kelvin_helmholtz", 2, true, 0xa2a8dca13e965e33ull},
    {"rayleigh_taylor", 1, false, 0xb94d517d755afa7aull},
    {"rayleigh_taylor", 1, true, 0xb94d517d755afa7aull},
    {"rayleigh_taylor", 2, false, 0xb94d517d755afa7aull},
    {"rayleigh_taylor", 2, true, 0xb94d517d755afa7aull},
    {"sedov", 1, false, 0x13043a4e921fb9b5ull},
    {"sedov", 1, true, 0x13043a4e921fb9b5ull},
    {"sedov", 2, false, 0x13043a4e921fb9b5ull},
    {"sedov", 2, true, 0x13043a4e921fb9b5ull},
    {"sod", 1, false, 0x1db3f75523a4bc3eull},
    {"sod", 1, true, 0x1db3f75523a4bc3eull},
    {"sod", 2, false, 0x1db3f75523a4bc3eull},
    {"sod", 2, true, 0x1db3f75523a4bc3eull},
    {"triple_point", 1, false, 0xcafa1568aa213694ull},
    {"triple_point", 1, true, 0xcafa1568aa213694ull},
    {"triple_point", 2, false, 0xcafa1568aa213694ull},
    {"triple_point", 2, true, 0xcafa1568aa213694ull},
};
// clang-format on

/// Names the case in test listings ("sod_2rank_async").
void PrintTo(const HashCase& c, std::ostream* os) {
  *os << c.config << "_" << c.ranks << "rank_"
      << (c.async_overlap ? "async" : "sync");
}

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      h_ ^= p[k];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// (level, global patch id) -> hash of that patch's field interiors.
using PatchHashes = std::map<std::pair<int, int>, std::uint64_t>;

void hash_local_patches(app::Simulation& sim, PatchHashes& out) {
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    for (const auto& p : sim.hierarchy().level(l).local_patches()) {
      Fnv1a h;
      h.value(p->box());
      for (int id = 0; id < p->data_count(); ++id) {
        const auto& cd = p->typed_data<pdat::cuda::CudaData>(id);
        const mesh::Centering centering =
            sim.hierarchy().variables().variable(id).centering;
        for (int k = 0; k < cd.components(); ++k) {
          const mesh::Box region = mesh::to_centering(
              p->box(), mesh::component_centering(centering, k));
          for (int d = 0; d < cd.component(k).depth(); ++d) {
            const util::View v = cd.device_view(k, d);
            for (int j = region.lower().j; j <= region.upper().j; ++j) {
              for (int i = region.lower().i; i <= region.upper().i; ++i) {
                h.value(v(i, j));
              }
            }
          }
        }
      }
      out[{l, p->global_id()}] = h.digest();
    }
  }
}

cfg::RunConfig load_example_config(const std::string& name) {
  const std::string path =
      std::string(RAMR_SOURCE_DIR) + "/examples/configs/" + name + ".json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing example config " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return cfg::parse_run_config_text(ss.str());
}

class FieldHash : public ::testing::TestWithParam<HashCase> {};

TEST_P(FieldHash, MatchesCommittedReference) {
  const HashCase& c = GetParam();
  cfg::RunConfig config = load_example_config(c.config);
  config.sim.async_overlap = c.async_overlap;
  // One step past the first regrid.
  const int steps = config.sim.regrid_interval + 1;

  PatchHashes patches;
  int regrids = 0;
  std::mutex m;
  const auto advance = [&](simmpi::Communicator* comm) {
    app::Simulation sim(config.sim, comm);
    sim.initialize();
    sim.run(steps);
    std::lock_guard<std::mutex> lock(m);
    hash_local_patches(sim, patches);
    regrids = sim.gridding_stats().regrids;
  };
  if (c.ranks == 1) {
    advance(nullptr);
  } else {
    simmpi::World world(c.ranks, config.network);
    world.run([&](simmpi::Communicator& comm) { advance(&comm); });
  }
  ASSERT_GE(regrids, 1) << "the advance must cross a regrid";

  Fnv1a h;
  for (const auto& [key, patch_hash] : patches) {
    h.value(key.first);
    h.value(key.second);
    h.value(patch_hash);
  }
  EXPECT_EQ(h.digest(), c.hash)
      << "\n    {\"" << c.config << "\", " << c.ranks << ", "
      << (c.async_overlap ? "true" : "false") << ", 0x" << std::hex
      << h.digest() << "ull},";
}

INSTANTIATE_TEST_SUITE_P(ExampleConfigs, FieldHash,
                         ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace ramr
