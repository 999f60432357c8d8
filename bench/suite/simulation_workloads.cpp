// The three simulation workloads: sod_bigpatch, kh_smallpatch and
// sod_2rank_async (README.md has the table of what each stresses).
//
// Every rank runs the same sequence: set-up repetitions (end-to-end
// mode) or one set-up per pass, 10 untimed warm-up steps, the timed
// steps, then probes. Collective calls (composite_summary,
// rebuild_schedules, checkpoints, allreduce) run on every rank.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "app/problem_registry.hpp"
#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "simmpi/communicator.hpp"
#include "suite.hpp"

namespace suite {
namespace {

using ramr::app::Simulation;
using ramr::app::SimulationConfig;
using ramr::app::TransferCounters;
using ramr::simmpi::Communicator;

constexpr int kWarmupSteps = 10;  // one Sod regrid cycle, two KH cycles
constexpr int kSetupReps = 7;
constexpr int kProbeReps = 5;

struct SimSpec {
  SimulationConfig config;
  int ranks = 1;
  int steps = 0;  ///< timed steps of the end-to-end pass
};

/// Sod's shock tube as a region scenario (bit-identical to the built-in
/// problem at x0 = 0.5), with the diaphragm moved by up to 1/256 of the
/// domain by the seed.
std::shared_ptr<const ramr::cfg::ScenarioSpec> sod_scenario(Rng& rng) {
  ramr::cfg::ScenarioSpec s;
  s.name = "sod";
  s.background = {0.125, 2.0, 0.0, 0.0};  // rho = 0.125, p = 0.1
  ramr::cfg::Region left;
  left.x_max = 0.5 + (rng.uniform() - 0.5) / 128.0;
  left.state = {1.0, 2.5, 0.0, 0.0};  // rho = 1, p = 1
  s.regions.push_back(left);
  return std::make_shared<const ramr::cfg::ScenarioSpec>(std::move(s));
}

/// The stock Kelvin-Helmholtz shear layer with the seed's phase on the
/// interface perturbation.
std::shared_ptr<const ramr::cfg::ScenarioSpec> kh_scenario(Rng& rng) {
  auto spec = ramr::app::ProblemRegistry::instance().scenario("kelvin_helmholtz");
  RAMR_REQUIRE(spec != nullptr, "kelvin_helmholtz scenario is not registered");
  ramr::cfg::ScenarioSpec s = *spec;
  s.regions.at(0).interface_phase = 2.0 * std::numbers::pi * rng.uniform();
  return std::make_shared<const ramr::cfg::ScenarioSpec>(std::move(s));
}

/// Timed steps: what the reference machine (README.md) runs in
/// options.seconds at `steps_per_second`, but at least 200 so that the
/// p95 step time has 10 samples beyond it.
int timed_steps(const Options& options, double steps_per_second) {
  if (options.smoke) {
    return 10;
  }
  return std::max(200, static_cast<int>(std::lround(options.seconds * steps_per_second)));
}

SimSpec make_spec(const Options& options) {
  Rng rng(options.seed);
  SimSpec spec;
  SimulationConfig& c = spec.config;
  c.device = ramr::perf::ipa().gpu_spec;
  c.max_levels = 3;
  c.ratio = 2;
  c.min_patch_size = 16;
  if (options.workload == "sod_bigpatch") {
    c.problem = "sod";
    c.scenario = sod_scenario(rng);
    c.nx = c.ny = 1024;
    c.max_patch_cells = 512 * 512;
    c.regrid_interval = 10;
    spec.steps = timed_steps(options, 13.5);
  } else if (options.workload == "kh_smallpatch") {
    c.problem = "kelvin_helmholtz";
    c.scenario = kh_scenario(rng);
    c.nx = c.ny = 512;
    c.max_patch_cells = 64 * 64;
    c.regrid_interval = 5;
    spec.steps = timed_steps(options, 18.0);
  } else {  // sod_2rank_async
    c.problem = "sod";
    c.scenario = sod_scenario(rng);
    c.nx = c.ny = 768;
    c.max_patch_cells = 128 * 128;
    c.regrid_interval = 10;
    c.async_overlap = true;
    c.wide_overlap = true;
    spec.ranks = 2;
    spec.steps = timed_steps(options, 9.0);
  }
  // Room for the three-level 1024^2 hierarchy; the K20x's 6 GB arena is
  // a capacity check this benchmark does not exercise.
  c.device.mem_bytes = 64ull << 30;
  return spec;
}

void barrier(Communicator* comm) {
  if (comm != nullptr) {
    comm->barrier();
  }
}

/// A Simulation points its communicator at its own clock and leaves it
/// there when destroyed, so after one dies the communicator must be
/// pointed at a live clock before the next collective charges it.
void rebind(Communicator* comm, ramr::vgpu::SimClock& clock) {
  if (comm != nullptr) {
    comm->set_clock(&clock);
  }
}

/// Cumulative counters of one rank, sampled around a timed loop.
struct Snapshot {
  double modeled_s = 0.0;
  DeviceCounters device;
  double overlap_saved_s = 0.0;
  TransferCounters xfer;
  ramr::simmpi::CommStats comm;
  int regrids = 0;
  long long cells_tagged = 0;
};

Snapshot snapshot(Simulation& sim, Communicator* comm) {
  Snapshot s;
  s.modeled_s = sim.modeled_seconds();
  s.device = DeviceCounters::sample(sim.clock(), sim.device());
  s.overlap_saved_s =
      sim.timeline() != nullptr ? sim.timeline()->overlap_seconds_saved() : 0.0;
  s.xfer = sim.integrator().transfer_counters();
  if (comm != nullptr) {
    s.comm = comm->stats();
  }
  s.regrids = sim.gridding_stats().regrids;
  s.cells_tagged = sim.gridding_stats().cells_tagged;
  return s;
}

/// One warm-up plus timed loop on a freshly initialized simulation.
struct Pass {
  int steps = 0;
  std::vector<double> step_s;  ///< host seconds of each timed step
  double wall_s = 0.0;         ///< host seconds of the whole timed loop
  double cell_updates = 0.0;   ///< sum of global cells before each step
  Snapshot before, after;
  ramr::hydro::FieldSummary initial, final;
  double last_dt = 0.0;
  std::int64_t patches = 0;
  double imbalance = 1.0;
  SpanStats spans;  ///< traced passes only

  double modeled_s() const { return after.modeled_s - before.modeled_s; }
};

Pass timed_pass(Simulation& sim, Communicator* comm, int steps, bool traced) {
  Pass p;
  p.steps = steps;
  p.initial = sim.composite_summary();
  for (int s = 0; s < kWarmupSteps; ++s) {
    sim.step();
  }
  barrier(comm);
  std::optional<HostSpans> spans;
  if (traced) {
    spans.emplace(sim.clock());
  }
  p.before = snapshot(sim, comm);
  const auto loop_start = Clock::now();
  for (int s = 0; s < steps; ++s) {
    p.cell_updates += static_cast<double>(sim.hierarchy().total_cells());
    if (spans) {
      spans->begin("step");
    }
    const auto t0 = Clock::now();
    sim.step();
    p.step_s.push_back(seconds_since(t0));
    if (spans) {
      spans->end();
    }
  }
  p.wall_s = seconds_since(loop_start);
  p.after = snapshot(sim, comm);
  if (spans) {
    p.spans = spans->stats();
    spans.reset();
  }
  barrier(comm);
  // Only now: field_summary charges the modeled clock.
  p.final = sim.composite_summary();
  p.last_dt = sim.last_dt();
  for (int l = 0; l < sim.hierarchy().num_levels(); ++l) {
    p.patches += static_cast<std::int64_t>(
        sim.hierarchy().level(l).global_patches().size());
  }
  const auto& history = sim.gridding_stats().imbalance_history;
  p.imbalance = history.empty() ? 1.0 : history.back();
  return p;
}

/// Direct timings of public calls after a timed loop.
struct Probes {
  double summary_s = 0.0;
  double rebuild_s = 0.0;
  double checkpoint_write_s = 0.0;
  double checkpoint_read_s = 0.0;
  double checkpoint_bytes = 0.0;
  double allreduce_s = 0.0;
  double parallel_for_us = 0.0;
  double charge_ns = 0.0;
  bool roundtrip_ok = true;  ///< the restored state sums to the saved one
};

Probes run_probes(Simulation& sim, const SimSpec& spec, Communicator* comm,
                  const std::string& checkpoint) {
  const auto timed = [&](auto&& fn) {
    barrier(comm);
    const auto t0 = Clock::now();
    fn();
    barrier(comm);
    return seconds_since(t0);
  };
  Probes pr;
  std::vector<double> summary, rebuild;
  ramr::hydro::FieldSummary saved;
  for (int i = 0; i < kProbeReps; ++i) {
    summary.push_back(timed([&] { saved = sim.composite_summary(); }));
  }
  for (int i = 0; i < kProbeReps; ++i) {
    rebuild.push_back(timed([&] { sim.integrator().rebuild_schedules(); }));
  }
  // One write and one read: a Sod 1024^2 checkpoint is ~280 MB.
  pr.checkpoint_write_s = timed([&] { sim.save_checkpoint(checkpoint); });
  {
    Simulation restored(spec.config, comm);
    pr.checkpoint_read_s = timed([&] { restored.restore_checkpoint(checkpoint); });
    const ramr::hydro::FieldSummary back = restored.composite_summary();
    pr.roundtrip_ok =
        std::abs(back.mass - saved.mass) <= 1.0e-12 * std::abs(saved.mass);
  }
  rebind(comm, sim.clock());
  const int rank = comm != nullptr ? comm->rank() : 0;
  const int size = comm != nullptr ? comm->size() : 1;
  barrier(comm);
  if (rank == 0) {
    for (int r = 0; r < size; ++r) {
      pr.checkpoint_bytes += static_cast<double>(std::filesystem::file_size(
          checkpoint + ".rank" + std::to_string(r)));
    }
  }
  barrier(comm);
  std::filesystem::remove(checkpoint + ".rank" + std::to_string(rank));
  if (size > 1) {
    std::vector<double> per_call;
    for (int b = 0; b < 11; ++b) {
      per_call.push_back(timed([&] {
                           for (int c = 0; c < 200; ++c) {
                             comm->allreduce(1.0, ramr::simmpi::ReduceOp::kSum);
                           }
                         }) /
                         200.0);
    }
    pr.allreduce_s = median(per_call);
  }
  if (rank == 0) {  // local probes: the other ranks wait at the barrier
    pr.parallel_for_us = probe_parallel_for_us();
    pr.charge_ns = probe_charge_ns();
  }
  barrier(comm);
  pr.summary_s = median(summary);
  pr.rebuild_s = median(rebuild);
  return pr;
}

struct RankResult {
  std::vector<double> setup_s;
  std::optional<Pass> untraced, traced;
  Probes probes;
  std::string error;
};

void run_rank(const SimSpec& spec, const Options& options, Communicator* comm,
              RankResult& out) {
  ramr::vgpu::SimClock idle_clock;  // charged by barriers between simulations
  std::unique_ptr<Simulation> sim;
  const auto setup = [&] {
    sim.reset();
    rebind(comm, idle_clock);
    barrier(comm);
    const auto t0 = Clock::now();
    sim = std::make_unique<Simulation>(spec.config, comm);
    sim->initialize();
    barrier(comm);
    out.setup_s.push_back(seconds_since(t0));
  };
  try {
    if (!options.trace) {
      for (int i = 0; i < kSetupReps; ++i) {
        setup();
      }
      out.untraced = timed_pass(*sim, comm, spec.steps, false);
    } else {
      const int steps = options.smoke ? spec.steps : spec.steps / 2;
      setup();
      out.untraced = timed_pass(*sim, comm, steps, false);
      out.probes = run_probes(*sim, spec, comm,
                              options.scratch_dir + "/" + options.workload + "-" +
                                  std::to_string(getpid()) + ".ckpt");
      setup();
      out.traced = timed_pass(*sim, comm, steps, true);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  sim.reset();
  rebind(comm, idle_clock);
}

/// The correctness gate of one pass: physical invariants, not a
/// bit-reference, so a later physics fix cannot trip it.
void gate(const Pass& p, const char* label, Record& rec) {
  const auto finite = [](const ramr::hydro::FieldSummary& s) {
    return std::isfinite(s.mass) && std::isfinite(s.internal_energy) &&
           std::isfinite(s.kinetic_energy);
  };
  const std::string where = std::string(label) + " pass: ";
  bool ok = true;
  if (!finite(p.initial) || !finite(p.final)) {
    rec.fail(where + "composite_summary is not finite");
    ok = false;
  }
  if (!(std::isfinite(p.last_dt) && p.last_dt > 0.0)) {
    rec.fail(where + "dt " + sci(p.last_dt) + " is not positive");
    ok = false;
  }
  const double drift = std::abs(p.final.mass - p.initial.mass) /
                       std::max(std::abs(p.initial.mass), 1.0e-300);
  if (!(drift <= kMassDriftTolerance)) {
    rec.fail(where + "relative mass drift " + sci(drift) +
             " exceeds " + sci(kMassDriftTolerance));
    ok = false;
  }
  rec.info[std::string("mass_drift_") + label] = drift;
  if (!ok) {
    rec.failed += p.steps;
  }
}

double self_ms_per_step(const SpanStats& spans, const std::string& name, int steps) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s * 1.0e3 / steps;
}

void end_to_end_metrics(const std::vector<RankResult>& ranks, Record& rec) {
  const Pass& p = *ranks[0].untraced;
  double modeled = 0.0;
  for (const RankResult& r : ranks) {
    modeled = std::max(modeled, r.untraced->modeled_s());
  }
  double host_s = 0.0;
  for (double s : p.step_s) {
    host_s += s;
  }
  rec.set("setup_s", median(ranks[0].setup_s));
  rec.set("host_cell_updates_per_s", p.cell_updates / host_s);
  rec.set("step_wall_p50_ms", percentile(p.step_s, 50.0) * 1.0e3);
  rec.set("step_wall_p95_ms", percentile(p.step_s, 95.0) * 1.0e3);
  rec.set("modeled_s_per_step", modeled / p.steps);
  rec.set("peak_rss_mb", peak_rss_mb());
}

void per_layer_metrics(const std::vector<RankResult>& ranks, Record& rec) {
  // Modeled time and counters from the slowest rank; host spans and
  // probes from rank 0.
  std::size_t slowest = 0;
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    if (ranks[r].untraced->modeled_s() > ranks[slowest].untraced->modeled_s()) {
      slowest = r;
    }
  }
  const Pass& u = *ranks[slowest].untraced;
  const Snapshot& a = u.after;
  const Snapshot& b = u.before;
  const double steps = u.steps;
  const auto count_per_step = [&](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before) / steps;
  };
  // Fig. 11 grind: the rank's component seconds per cell it advanced.
  set_device_metrics(rec, b.device, a.device, steps,
                     u.cell_updates / static_cast<double>(ranks.size()));
  rec.set("vgpu.overlap_saved_s_per_step", (a.overlap_saved_s - b.overlap_saved_s) / steps);

  const int regrids = a.regrids - b.regrids;
  rec.set("amr.regrids", regrids);
  rec.set("amr.patches", static_cast<double>(u.patches));
  rec.set("amr.cells_tagged_per_regrid",
          regrids > 0 ? static_cast<double>(a.cells_tagged - b.cells_tagged) / regrids
                      : 0.0);
  rec.set("amr.load_imbalance", u.imbalance);

  rec.set("xfer.messages_per_step",
          count_per_step(a.xfer.messages_sent, b.xfer.messages_sent));
  rec.set("xfer.bytes_per_step", count_per_step(a.xfer.bytes_sent, b.xfer.bytes_sent));
  rec.set("simmpi.messages_per_step",
          count_per_step(a.comm.messages_sent, b.comm.messages_sent));
  rec.set("simmpi.bytes_per_step", count_per_step(a.comm.bytes_sent, b.comm.bytes_sent));
  for (int w = 0; w < TransferCounters::kWindowCount; ++w) {
    const double comm_s = a.xfer.window[w].comm_seconds - b.xfer.window[w].comm_seconds;
    const double saved = a.xfer.window[w].overlap_seconds_saved -
                         b.xfer.window[w].overlap_seconds_saved;
    rec.set(std::string("xfer.hidden_fraction.") + TransferCounters::window_name(w),
            comm_s > 0.0 ? saved / comm_s : 0.0);
  }
  const std::uint64_t fills = a.xfer.halo_fills - b.xfer.halo_fills;
  rec.set("xfer.plan_fallbacks_per_fill",
          fills > 0 ? static_cast<double>(a.xfer.plan_fallbacks - b.xfer.plan_fallbacks) /
                          static_cast<double>(fills)
                    : 0.0);

  const Pass& t = *ranks[0].traced;
  const SpanStats& spans = t.spans;
  rec.spans = spans;
  rec.set("app.host_stage_hydro_ms", self_ms_per_step(spans, "stage:hydro", t.steps));
  rec.set("app.host_stage_timestep_ms",
          self_ms_per_step(spans, "stage:timestep", t.steps));
  for (int w = 0; w < TransferCounters::kWindowCount; ++w) {
    const std::string window = TransferCounters::window_name(w);
    rec.set("app.host_window_" + window + "_ms",
            self_ms_per_step(spans, "window:" + window, t.steps));
  }
  rec.set("app.host_sync_ms", self_ms_per_step(spans, "sync", t.steps));
  rec.set("app.host_unannotated_ms", self_ms_per_step(spans, "step", t.steps));
  for (const char* x : {"pack", "wire", "unpack", "local"}) {
    rec.set(std::string("xfer.host_") + x + "_ms",
            self_ms_per_step(spans, std::string("xfer:") + x, t.steps));
  }
  const auto regrid = spans.find("regrid");
  rec.set("amr.host_regrid_ms_per_regrid",
          regrid != spans.end() && regrid->second.count > 0
              ? regrid->second.total_s * 1.0e3 / regrid->second.count
              : 0.0);
  rec.set("trace.overhead_frac", t.wall_s / ranks[0].untraced->wall_s - 1.0);

  const Probes& pr = ranks[0].probes;
  rec.set("util.parallel_for_us", pr.parallel_for_us);
  rec.set("vgpu.charge_ns", pr.charge_ns);
  rec.set("xfer.rebuild_schedules_ms", pr.rebuild_s * 1.0e3);
  rec.set("hydro.composite_summary_ms", pr.summary_s * 1.0e3);
  rec.set("pdat.checkpoint_write_ms", pr.checkpoint_write_s * 1.0e3);
  rec.set("pdat.checkpoint_read_ms", pr.checkpoint_read_s * 1.0e3);
  rec.set("pdat.checkpoint_mb", pr.checkpoint_bytes / (1024.0 * 1024.0));
  rec.set("simmpi.allreduce_us", pr.allreduce_s * 1.0e6);
}

}  // namespace

bool is_simulation_workload(const std::string& name) {
  return name == "sod_bigpatch" || name == "kh_smallpatch" ||
         name == "sod_2rank_async";
}

Record run_simulation_workload(const Options& options) {
  const SimSpec spec = make_spec(options);
  std::vector<RankResult> ranks(static_cast<std::size_t>(spec.ranks));
  if (spec.ranks == 1) {
    run_rank(spec, options, nullptr, ranks[0]);
  } else {
    ramr::simmpi::World world(spec.ranks, ramr::perf::ipa().network);
    world.run([&](Communicator& comm) {
      run_rank(spec, options, &comm, ranks[static_cast<std::size_t>(comm.rank())]);
    });
  }

  Record rec;
  rec.info["ranks"] = spec.ranks;
  rec.info["nx"] = spec.config.nx;
  for (const RankResult& r : ranks) {
    if (!r.error.empty()) {
      rec.fail("rank threw: " + r.error);
    }
  }
  const RankResult& r0 = ranks[0];
  for (const std::optional<Pass>* pass : {&r0.untraced, &r0.traced}) {
    if (pass->has_value()) {
      rec.attempted += (*pass)->steps;
    }
  }
  if (!rec.errors.empty()) {
    rec.failed = rec.attempted;
    return rec;
  }
  rec.info["timed_steps_per_pass"] = r0.untraced->steps;
  gate(*r0.untraced, "untraced", rec);
  if (!options.trace) {
    end_to_end_metrics(ranks, rec);
    return rec;
  }
  gate(*r0.traced, "traced", rec);
  for (const RankResult& r : ranks) {
    // Tracing only observes the clock: the traced pass must reproduce the
    // modeled time bit for bit.
    if (r.traced->modeled_s() != r.untraced->modeled_s()) {
      rec.fail("traced modeled seconds differ from untraced");
    }
    if (!r.probes.roundtrip_ok) {
      rec.fail("checkpoint round trip changed the mass");
    }
  }
  per_layer_metrics(ranks, rec);
  return rec;
}

}  // namespace suite
