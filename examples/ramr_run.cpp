// JSON-driven simulation driver (docs/scenarios.md).
//
// Single-run mode: validate a config, run it (multi-rank via the
// simulated MPI world when run.ranks > 1), stream checkpoints/VTK per
// the output policy, and print the metrics report as JSON.
//
// Daemon mode (--serve K): submit every config to a svc::SimulationServer
// that multiplexes up to K jobs over one shared modeled device, fusing
// kernel launches across jobs, and print the service status report.
//
//   ./ramr_run --config problem.json [--config more.json ...]
//   ./ramr_run --serve 4 --config a.json --config b.json ...
//   ./ramr_run --serve 4 --manifest state.json   # resume a stopped server
//   ./ramr_run --print-config problem.json   # effective config, then exit
//   ./ramr_run --list-problems
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/problem_registry.hpp"
#include "app/simulation.hpp"
#include "app/vtk_writer.hpp"
#include "cfg/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/server.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open config file \"%s\"\n",
                 path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string job_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// One rank's slice of a single-run job: advance with interval outputs.
void run_with_outputs(ramr::app::Simulation& sim,
                      const ramr::cfg::RunConfig& config, int rank) {
  const ramr::cfg::RunBudget& budget = config.run;
  const ramr::cfg::OutputPolicy& out = config.output;
  const auto write = [&](bool final_output) {
    if (out.basename.empty()) {
      return;
    }
    const std::string prefix =
        out.basename + "_step" + std::to_string(sim.step_count());
    if (out.checkpoint_interval > 0 &&
        (final_output || sim.step_count() % out.checkpoint_interval == 0)) {
      sim.save_checkpoint(prefix + ".ckpt");
    }
    if (rank == 0 && out.vtk_interval > 0 &&
        (final_output || sim.step_count() % out.vtk_interval == 0)) {
      ramr::app::write_vtk(sim, prefix,
                           {{"density", sim.fields().density0},
                            {"energy", sim.fields().energy0}});
    }
  };
  for (int s = 0; s < budget.max_steps && sim.time() < budget.end_time; ++s) {
    sim.step();
    if (s + 1 < budget.max_steps && sim.time() < budget.end_time) {
      write(/*final_output=*/false);
    }
  }
  write(/*final_output=*/true);
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "error: cannot open \"%s\" for writing\n",
                 path.c_str());
    std::exit(2);
  }
  os << text;
}

/// Observability artifacts of one rank: the Chrome trace events (when
/// tracing) and the JSONL metric stream (when sampling). Collected per
/// rank inside the world, written once after it joins.
void collect_observability(ramr::app::Simulation& sim, int rank,
                           std::vector<ramr::cfg::Json>* trace_events,
                           std::vector<std::string>* metrics_lines) {
  if (ramr::obs::TraceRecorder* rec = sim.trace_recorder()) {
    (*trace_events)[static_cast<std::size_t>(rank)] =
        ramr::obs::chrome_trace_events(*rec, rank);
  }
  if (rank == 0) {
    if (ramr::obs::MetricsRegistry* reg = sim.metrics_registry()) {
      *metrics_lines = reg->jsonl();
    }
  }
}

void write_observability(const ramr::cfg::RunConfig& config,
                         std::vector<ramr::cfg::Json> trace_events,
                         const std::vector<std::string>& metrics_lines) {
  const ramr::obs::ObservabilityConfig* oc = config.sim.observability.get();
  if (oc == nullptr) {
    return;
  }
  if (oc->trace && !oc->trace_path.empty()) {
    // Drop ranks that never recorded (tracing disabled mid-flight is
    // impossible today, but keep the export robust to empty slots).
    std::vector<ramr::cfg::Json> present;
    for (ramr::cfg::Json& e : trace_events) {
      if (e.is_array()) {
        present.push_back(std::move(e));
      }
    }
    write_text_file(
        oc->trace_path,
        ramr::obs::chrome_trace_document(std::move(present)).dump() + "\n");
  }
  if (oc->metrics && !oc->metrics_path.empty()) {
    std::string text;
    for (const std::string& line : metrics_lines) {
      text += line;
      text += "\n";
    }
    write_text_file(oc->metrics_path, text);
  }
}

int run_single(const std::string& path) {
  const ramr::cfg::RunConfig config =
      ramr::cfg::parse_run_config_text(read_file(path));
  ramr::cfg::Json report;
  std::vector<ramr::cfg::Json> trace_events(
      static_cast<std::size_t>(config.run.ranks));
  std::vector<std::string> metrics_lines;
  if (config.run.ranks == 1) {
    ramr::app::Simulation sim(config.sim, nullptr);
    sim.initialize();
    run_with_outputs(sim, config, 0);
    report = ramr::svc::run_metrics_json(sim);
    collect_observability(sim, 0, &trace_events, &metrics_lines);
  } else {
    ramr::simmpi::World world(config.run.ranks, config.network);
    world.run([&](ramr::simmpi::Communicator& comm) {
      ramr::app::Simulation sim(config.sim, &comm);
      sim.initialize();
      run_with_outputs(sim, config, comm.rank());
      // Every rank builds the report: the summary totals inside it are
      // collective reductions. Rank 0 keeps the result.
      ramr::cfg::Json rank_report = ramr::svc::run_metrics_json(sim);
      if (comm.rank() == 0) {
        report = std::move(rank_report);
      }
      // Each rank writes only its own slot: no lock needed.
      collect_observability(sim, comm.rank(), &trace_events, &metrics_lines);
    });
  }
  write_observability(config, std::move(trace_events), metrics_lines);
  std::printf("%s\n", report.dump().c_str());
  // A diverged run prints its non-finite totals as null; fail it too.
  for (const char* key : {"mass", "internal_energy", "kinetic_energy"}) {
    if (!std::isfinite(report.find("summary")->find(key)->as_number())) {
      std::fprintf(stderr, "error: %s: non-finite final summary (%s)\n",
                   path.c_str(), key);
      return 1;
    }
  }
  return 0;
}

int run_server(int concurrency, const std::vector<std::string>& paths,
               const std::string& manifest, const std::string& metrics_out) {
  ramr::svc::ServerConfig sc;
  sc.max_concurrent_jobs = concurrency;
  sc.manifest_path = manifest;
  sc.metrics_out = metrics_out;
  ramr::svc::SimulationServer server(sc);
  // Unfinished jobs from a previous server instance come back first
  // (restored from their streamed checkpoints), then the new submissions.
  const int resumed = server.resume_from_manifest();
  if (resumed > 0) {
    std::fprintf(stderr, "resumed %d jobs from %s\n", resumed,
                 manifest.c_str());
  }
  for (const std::string& path : paths) {
    server.submit({job_name(path),
                   ramr::cfg::parse_run_config_text(read_file(path))});
  }
  server.run();
  std::printf("%s\n", server.status_json().dump().c_str());
  // Any failed job fails the invocation.
  for (int id = 0; id < server.queue().size(); ++id) {
    if (server.status(id).state == ramr::svc::JobState::kFailed) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> configs;
  std::string manifest;
  std::string metrics_out;
  std::string print_config;
  int serve = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      configs.push_back(next());
    } else if (arg == "--serve") {
      serve = std::atoi(next());
      if (serve < 1) {
        std::fprintf(stderr, "error: --serve needs a positive job count\n");
        return 2;
      }
    } else if (arg == "--manifest") {
      manifest = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--print-config") {
      print_config = next();
    } else if (arg == "--list-problems") {
      for (const std::string& name :
           ramr::app::ProblemRegistry::instance().names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: ramr_run [--serve K [--manifest state.json] "
                   "[--metrics-out metrics.prom]] "
                   "--config file.json [--config ...]\n"
                   "       ramr_run --print-config file.json\n"
                   "       ramr_run --list-problems\n");
      return 2;
    }
  }
  try {
    // Parsed inside the try: a rejected config is an `error:` line and
    // exit 1, like any other run.
    if (!print_config.empty()) {
      const ramr::cfg::RunConfig config =
          ramr::cfg::parse_run_config_text(read_file(print_config));
      std::printf("%s\n", ramr::cfg::to_json(config).dump().c_str());
      return 0;
    }
    if (manifest.empty() ? configs.empty() : serve < 1) {
      std::fprintf(stderr, manifest.empty()
                               ? "error: no --config given\n"
                               : "error: --manifest requires --serve\n");
      return 2;
    }
    if (!metrics_out.empty() && serve < 1) {
      std::fprintf(stderr, "error: --metrics-out requires --serve\n");
      return 2;
    }
    if (serve > 0) {
      return run_server(serve, configs, manifest, metrics_out);
    }
    int rc = 0;
    for (const std::string& path : configs) {
      rc |= run_single(path);
    }
    return rc;
  } catch (const ramr::util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
