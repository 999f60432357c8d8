// Per-scenario smoke tests: every example config in examples/configs/
// parses, runs a short multi-level advance, keeps its fields finite,
// actually refines, and streams checkpoint + VTK output. These are the
// ctest twin of the CI scenario-smoke job (docs/scenarios.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "app/vtk_writer.hpp"
#include "cfg/config.hpp"
#include "pdat/cuda/cuda_data.hpp"

namespace ramr {
namespace {

std::string temp_prefix(const std::string& name) {
  return "/tmp/ramr_scenario_" + name + "_" + std::to_string(::getpid());
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

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

void expect_all_fields_finite(app::Simulation& sim) {
  long long values = 0;
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    hier::PatchLevel& level = sim.hierarchy().level(l);
    for (const auto& p : level.local_patches()) {
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
                ASSERT_TRUE(std::isfinite(v(i, j)))
                    << "level " << l << " var " << id << " at (" << i << ","
                    << j << ")";
                ++values;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(values, 0);
}

void run_scenario_smoke(const std::string& name) {
  cfg::RunConfig config = load_example_config(name);
  EXPECT_EQ(config.sim.problem, name);
  EXPECT_GE(config.sim.max_levels, 2) << "smoke runs must be multi-level";

  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  const int steps = std::min(config.run.max_steps, 8);
  sim.run(steps);
  EXPECT_EQ(sim.step_count(), steps);
  EXPECT_GT(sim.time(), 0.0);

  // The scenario must exercise the AMR machinery, not just tick along
  // on the coarse level.
  EXPECT_GE(sim.hierarchy().num_levels(), 2) << name << " never refined";
  const amr::GriddingStats& gs = sim.gridding_stats();
  EXPECT_GE(gs.initial_builds, 1);
  EXPECT_GT(gs.cells_tagged, 0) << name << " tagged nothing";

  expect_all_fields_finite(sim);
  const hydro::FieldSummary summary = sim.composite_summary();
  EXPECT_TRUE(std::isfinite(summary.mass));
  EXPECT_GT(summary.mass, 0.0);
  EXPECT_TRUE(std::isfinite(summary.kinetic_energy));

  // The configured output streams work for this scenario.
  const std::string prefix = temp_prefix(name);
  EXPECT_GT(config.output.checkpoint_interval, 0);
  EXPECT_GT(config.output.vtk_interval, 0);
  sim.save_checkpoint(prefix + ".ckpt");
  EXPECT_TRUE(file_exists(prefix + ".ckpt.rank0"));
  const std::vector<std::string> vtk_files = app::write_vtk(
      sim, prefix,
      {{"density", sim.fields().density0}, {"energy", sim.fields().energy0}});
  EXPECT_GE(vtk_files.size(), 2u);  // at least one .vtk plus the .visit index
  for (const std::string& f : vtk_files) {
    EXPECT_TRUE(file_exists(f)) << f;
    std::remove(f.c_str());
  }
  std::remove((prefix + ".ckpt.rank0").c_str());
}

TEST(Scenarios, SodSmoke) { run_scenario_smoke("sod"); }

TEST(Scenarios, TriplePointSmoke) { run_scenario_smoke("triple_point"); }

TEST(Scenarios, SedovSmoke) { run_scenario_smoke("sedov"); }

TEST(Scenarios, KelvinHelmholtzSmoke) { run_scenario_smoke("kelvin_helmholtz"); }

TEST(Scenarios, RayleighTaylorSmoke) { run_scenario_smoke("rayleigh_taylor"); }

TEST(Scenarios, SedovBlastIsCentered) {
  // Independent of the example config: the stock Sedov spec deposits a
  // hot circle at the domain centre on an otherwise cold background.
  cfg::RunConfig config = cfg::parse_run_config_text(
      "{\"problem\": \"sedov\", \"grid\": {\"nx\": 48, \"ny\": 48}}");
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  sim.run(4);
  const hydro::FieldSummary summary = sim.composite_summary();
  // The blast converts internal energy into motion immediately.
  EXPECT_GT(summary.kinetic_energy, 0.0);
  expect_all_fields_finite(sim);
}

TEST(Scenarios, RayleighTaylorGravityDrivesTheHeavyLayerDown) {
  cfg::RunConfig config = cfg::parse_run_config_text(
      "{\"problem\": \"rayleigh_taylor\", \"grid\": {\"nx\": 16, \"ny\": 48},"
      " \"amr\": {\"max_levels\": 2}}");
  app::Simulation sim(config.sim, nullptr);
  sim.initialize();
  sim.run(6);
  // Gravity feeds kinetic energy into an initially static stratification.
  EXPECT_GT(sim.composite_summary().kinetic_energy, 0.0);
  expect_all_fields_finite(sim);
}

}  // namespace
}  // namespace ramr
