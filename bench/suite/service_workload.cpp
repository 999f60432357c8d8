// service_mixed: svc::SimulationServer at K = 4 with cross-job launch
// fusion, as a closed loop. Every job is queued at t = 0 and the server
// drains the queue. The seed chooses which job of each problem gets which
// length and the queue order, so every seed does the same job steps per
// problem.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "suite.hpp"
#include "svc/server.hpp"

namespace suite {
namespace {

using ramr::svc::JobSpec;

constexpr int kConcurrency = 4;
constexpr int kSetupReps = 7;
constexpr int kCheckpointInterval = 10;
constexpr std::array<const char*, 4> kProblems = {"sod", "kelvin_helmholtz",
                                                  "rayleigh_taylor", "sedov"};
constexpr std::array<int, 3> kJobSteps = {30, 40, 50};
/// Jobs the reference machine (README.md) finishes per second.
constexpr double kJobsPerSecond = 1.6;

ramr::cfg::RunConfig job_config(const char* problem, int steps) {
  ramr::cfg::RunConfig job;
  job.sim.problem = problem;
  job.sim.nx = job.sim.ny = 128;
  job.sim.max_levels = 3;
  job.sim.regrid_interval = 5;
  job.sim.device = ramr::perf::ipa().gpu_spec;
  job.run.max_steps = steps;
  job.output.checkpoint_interval = kCheckpointInterval;
  return job;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
}

/// The closed loop's job list; `half` sizes it for one of the two passes
/// of a --trace 1 run (smoke runs always have 4 jobs).
std::vector<JobSpec> make_jobs(const Options& options, bool half) {
  int n = 4;
  if (!options.smoke) {
    const double jobs = options.seconds * kJobsPerSecond / (half ? 2.0 : 1.0);
    n = std::max(8, 4 * static_cast<int>(std::lround(jobs / 4.0)));
  }
  // Every problem gets the same lengths (the first n/4 of 30, 40, 50,
  // 30, ...); the seed shuffles which job gets which and the queue order.
  Rng rng(options.seed);
  std::vector<JobSpec> jobs;
  for (const char* problem : kProblems) {
    std::vector<int> steps;
    for (int k = 0; k < n / 4; ++k) {
      steps.push_back(options.smoke ? 10 : kJobSteps[static_cast<std::size_t>(k) % 3]);
    }
    shuffle(steps, rng);
    for (const int s : steps) {
      const std::string name = "job" + std::to_string(jobs.size());
      jobs.push_back(JobSpec{name, job_config(problem, s), {}});
      jobs.back().config.output.basename = name;
    }
  }
  shuffle(jobs, rng);
  return jobs;
}

/// Median set-up of one admission wave: one simulation of every problem
/// constructed and initialized on a fresh device, as the server does for
/// its first K jobs. Also returns each problem's initial mass, the
/// baseline of the drift gate.
double admission_setup(std::map<std::string, double>& initial_mass, int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    ramr::vgpu::Device device(ramr::perf::ipa().gpu_spec);
    std::vector<std::unique_ptr<ramr::app::Simulation>> sims;
    const auto t0 = Clock::now();
    for (const char* problem : kProblems) {
      sims.push_back(std::make_unique<ramr::app::Simulation>(
          job_config(problem, 1).sim, nullptr, &device));
      sims.back()->initialize();
    }
    samples.push_back(seconds_since(t0));
    for (std::size_t p = 0; p < kProblems.size(); ++p) {
      initial_mass[kProblems[p]] = sims[p]->composite_summary().mass;
    }
  }
  return median(std::move(samples));
}

double json_number(const ramr::cfg::Json& j, std::initializer_list<const char*> path) {
  const ramr::cfg::Json* node = &j;
  for (const char* key : path) {
    node = node->is_object() ? node->find(key) : nullptr;
    if (node == nullptr) {
      return 0.0;
    }
  }
  return node->is_number() ? node->as_number() : 0.0;
}

struct ServicePass {
  int jobs = 0;
  double wall_s = 0.0;
  std::vector<double> round_s;  ///< untraced passes only
  int rounds = 0;
  double modeled_s = 0.0;
  DeviceCounters device;
  ramr::vgpu::FusionStats fusion;
  double job_steps = 0.0;     ///< steps summed over jobs
  double cell_updates = 0.0;  ///< each job's final cells x its steps
  double regrids = 0.0;
  double cells_tagged = 0.0;
  double halo_fills = 0.0;
  double plan_fallbacks = 0.0;
  int retries = 0;
  SpanStats spans;
};

ServicePass run_server(const std::vector<JobSpec>& jobs, const Options& options,
                       bool traced, const std::map<std::string, double>& initial_mass,
                       Record& rec) {
  const std::string dir = options.scratch_dir + "/service-" +
                          std::to_string(getpid()) + (traced ? "-traced" : "");
  std::filesystem::create_directories(dir);
  ramr::svc::ServerConfig sc;
  sc.device = ramr::perf::ipa().gpu_spec;
  sc.max_concurrent_jobs = kConcurrency;
  sc.output_dir = dir;
  ramr::svc::SimulationServer server(sc);
  for (const JobSpec& job : jobs) {
    server.submit(job);
  }

  ServicePass p;
  p.jobs = static_cast<int>(jobs.size());
  {
    std::optional<RoundClock> round_clock;
    std::optional<HostSpans> spans;
    if (traced) {
      spans.emplace(server.clock());
    } else {
      round_clock.emplace(server.clock());
    }
    const auto t0 = Clock::now();
    server.run();
    const auto t_end = Clock::now();
    p.wall_s = std::chrono::duration<double>(t_end - t0).count();
    if (traced) {
      p.spans = spans->stats();
      const auto it = p.spans.find("server:round");
      p.rounds = it == p.spans.end() ? 0 : static_cast<int>(it->second.count);
    } else {
      const auto& starts = round_clock->round_starts();
      for (std::size_t r = 0; r < starts.size(); ++r) {
        const auto next = r + 1 < starts.size() ? starts[r + 1] : t_end;
        p.round_s.push_back(std::chrono::duration<double>(next - starts[r]).count());
      }
      p.rounds = static_cast<int>(starts.size());
    }
  }

  p.modeled_s = server.clock().total();
  p.device = DeviceCounters::sample(server.clock(), server.device());
  p.fusion = server.device().fusion_stats();

  for (int id = 0; id < server.queue().size(); ++id) {
    const ramr::svc::JobStatus st = server.status(id);
    const JobSpec spec = server.queue().spec(id);
    const std::string where = std::string(traced ? "traced" : "untraced") +
                              " pass, " + spec.name + ": ";
    p.retries += st.retry_count;
    if (st.state != ramr::svc::JobState::kDone) {
      rec.fail(where + "ended " + ramr::svc::job_state_name(st.state) + " " + st.error);
      ++rec.failed;
      continue;
    }
    const ramr::cfg::Json& m = st.metrics;
    p.job_steps += st.steps;
    p.cell_updates += json_number(m, {"hierarchy", "cells"}) * st.steps;
    p.regrids += json_number(m, {"gridding", "regrids"});
    p.cells_tagged += json_number(m, {"gridding", "cells_tagged"});
    p.halo_fills += json_number(m, {"transfer", "halo_fills"});
    p.plan_fallbacks += json_number(m, {"transfer", "plan_fallbacks"});
    const double mass = json_number(m, {"summary", "mass"});
    const double base = initial_mass.at(spec.config.sim.problem);
    const double drift = std::abs(mass - base) / std::max(std::abs(base), 1.0e-300);
    if (!std::isfinite(mass) || !std::isfinite(json_number(m, {"last_dt"})) ||
        !(drift <= kMassDriftTolerance)) {
      rec.fail(where + "mass drift " + sci(drift) + " exceeds " +
               sci(kMassDriftTolerance));
      ++rec.failed;
    }
    rec.info["max_mass_drift"] = std::max(rec.info["max_mass_drift"], drift);
  }
  rec.attempted += p.jobs;
  std::filesystem::remove_all(dir);
  return p;
}

/// Per-layer metrics of the service, per job step (the round count depends
/// on how the closed loop packs jobs into rounds, the job steps do not).
void per_layer_metrics(const ServicePass& u, const ServicePass& t, Record& rec) {
  set_device_metrics(rec, DeviceCounters{}, u.device, u.job_steps, u.cell_updates);
  rec.set("amr.regrids", u.regrids);
  rec.set("amr.cells_tagged_per_regrid", u.regrids > 0 ? u.cells_tagged / u.regrids : 0.0);
  rec.set("amr.load_imbalance", 1.0);
  rec.set("xfer.plan_fallbacks_per_fill",
          u.halo_fills > 0 ? u.plan_fallbacks / u.halo_fills : 0.0);
  rec.set("svc.fusion_saved_frac",
          u.fusion.serial_seconds > 0.0
              ? (u.fusion.serial_seconds - u.fusion.fused_seconds) / u.fusion.serial_seconds
              : 0.0);
  rec.set("svc.launches_per_round", static_cast<double>(u.device.launches) / u.rounds);
  rec.set("svc.retries", u.retries);
  rec.set("svc.jobs_per_hour_modeled", u.jobs * 3600.0 / u.modeled_s);
  rec.set("svc.host_jobs_per_s", u.jobs / u.wall_s);

  // Host self time per job step, from the traced pass.
  const auto self_ms = [&](const std::string& name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? 0.0 : it->second.self_s * 1.0e3 / t.job_steps;
  };
  rec.spans = t.spans;
  rec.set("app.host_stage_hydro_ms", self_ms("stage:hydro"));
  rec.set("app.host_stage_timestep_ms", self_ms("stage:timestep"));
  for (const char* w : {"state", "pressure", "viscosity", "preadvec", "postcell"}) {
    rec.set(std::string("app.host_window_") + w + "_ms",
            self_ms(std::string("window:") + w));
  }
  rec.set("app.host_sync_ms", self_ms("sync"));
  rec.set("app.host_unannotated_ms", self_ms("server:round"));
  rec.set("xfer.host_local_ms", self_ms("xfer:local"));
  const auto regrid = t.spans.find("regrid");
  rec.set("amr.host_regrid_ms_per_regrid",
          regrid != t.spans.end() && regrid->second.count > 0
              ? regrid->second.total_s * 1.0e3 / regrid->second.count
              : 0.0);
  rec.set("trace.overhead_frac", t.wall_s / u.wall_s - 1.0);
}

/// Layer probes on one standalone Sod job after 10 steps: the calls the
/// server makes per job (summaries, schedule rebuilds, checkpoints).
void probes(const Options& options, Record& rec) {
  const ramr::app::SimulationConfig config = job_config("sod", 10).sim;
  ramr::app::Simulation sim(config, nullptr);
  sim.initialize();
  for (int s = 0; s < 10; ++s) {
    sim.step();
  }
  ramr::hydro::FieldSummary saved;
  rec.set("hydro.composite_summary_ms",
          seconds_per_call(5, 1, [&] { saved = sim.composite_summary(); }) * 1.0e3);
  rec.set("xfer.rebuild_schedules_ms",
          seconds_per_call(5, 1, [&] { sim.integrator().rebuild_schedules(); }) * 1.0e3);
  const std::string checkpoint =
      options.scratch_dir + "/service-probe-" + std::to_string(getpid()) + ".ckpt";
  const std::string file = checkpoint + ".rank0";
  rec.set("pdat.checkpoint_write_ms",
          seconds_per_call(5, 1, [&] { sim.save_checkpoint(checkpoint); }) * 1.0e3);
  rec.set("pdat.checkpoint_mb",
          static_cast<double>(std::filesystem::file_size(file)) / (1024.0 * 1024.0));
  std::vector<double> read;
  for (int r = 0; r < 5; ++r) {
    ramr::app::Simulation restored(config, nullptr);
    const auto t0 = Clock::now();
    restored.restore_checkpoint(checkpoint);
    read.push_back(seconds_since(t0));
    if (r == 0 && std::abs(restored.composite_summary().mass - saved.mass) >
                      1.0e-12 * std::abs(saved.mass)) {
      rec.fail("checkpoint round trip changed the mass");
    }
  }
  rec.set("pdat.checkpoint_read_ms", median(read) * 1.0e3);
  std::filesystem::remove(file);
  rec.set("util.parallel_for_us", probe_parallel_for_us());
  rec.set("vgpu.charge_ns", probe_charge_ns());
}

}  // namespace

Record run_service_workload(const Options& options) {
  Record rec;
  std::map<std::string, double> initial_mass;
  if (!options.trace) {
    const std::vector<JobSpec> jobs = make_jobs(options, /*half=*/false);
    const double setup_s = admission_setup(initial_mass, kSetupReps);
    const ServicePass p = run_server(jobs, options, false, initial_mass, rec);
    rec.info["jobs"] = p.jobs;
    rec.info["rounds"] = p.rounds;
    rec.set("setup_s", setup_s);
    rec.set("host_cell_updates_per_s", p.cell_updates / p.wall_s);
    rec.set("step_wall_p50_ms", percentile(p.round_s, 50.0) * 1.0e3);
    rec.set("step_wall_p95_ms", percentile(p.round_s, 95.0) * 1.0e3);
    rec.set("modeled_s_per_step", p.modeled_s / p.job_steps);
    rec.set("peak_rss_mb", peak_rss_mb());
    return rec;
  }
  const std::vector<JobSpec> jobs = make_jobs(options, /*half=*/true);
  admission_setup(initial_mass, 1);
  const ServicePass u = run_server(jobs, options, false, initial_mass, rec);
  const ServicePass t = run_server(jobs, options, true, initial_mass, rec);
  rec.info["jobs"] = u.jobs;
  rec.info["rounds"] = u.rounds;
  if (t.modeled_s != u.modeled_s) {
    rec.fail("traced server clock differs from untraced");
  }
  per_layer_metrics(u, t, rec);
  probes(options, rec);
  return rec;
}

}  // namespace suite
