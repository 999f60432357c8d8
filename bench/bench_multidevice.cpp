// Multi-device ranks: the devices-per-rank axis of the paper's Fig. 10 /
// Fig. 11 runs. Each rank owns a vgpu::Topology of N modeled K20x-class
// devices joined by NVLink-style peer links; the level's patches spread
// over the devices, every kernel stage issues one fused launch per
// device on its own "gpu<i>" timeline lane, and cross-device halo copies
// ride the compiled per-(src,dst)-device plans onto the "peer<i>-<j>"
// link lanes (docs/device_topology.md).
//
// Hard asserts (CI bench-smoke):
//   - 2- and 4-device ranks beat the 1-device modeled step time under
//     the async-overlap model;
//   - GPU-direct wire mode strictly reduces wire+staging seconds
//     (net + d2h + h2d lane busy) against host-staged sends;
//   - the physics (composite mass / internal / kinetic energy) is
//     bit-identical across device counts and wire modes;
//   - no compiled-plan fallbacks anywhere.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "app/simulation.hpp"
#include "perf/machine.hpp"
#include "perf/report.hpp"

namespace {

constexpr int kRanks = 2;

struct RunResult {
  int device_count = 1;
  bool gpu_direct = false;
  double step_s = 0.0;          ///< slowest rank's modeled seconds / step
  double wire_staging_s = 0.0;  ///< sum over ranks: net+d2h+h2d lane busy
  double peer_s = 0.0;          ///< sum over ranks: peer link lane busy
  std::uint64_t peer_bytes = 0;
  ramr::hydro::FieldSummary summary;
};

RunResult run(int device_count, bool gpu_direct, int steps, int n,
              bool traced = false) {
  ramr::app::SimulationConfig cfg;
  cfg.problem = "triple_point";
  cfg.nx = n;
  cfg.ny = n;
  cfg.max_levels = 3;
  cfg.regrid_interval = 5;
  cfg.device = ramr::perf::ipa().gpu_spec;
  cfg.async_overlap = true;
  cfg.topology.device_count = device_count;
  cfg.topology.gpu_direct = gpu_direct;
  if (traced) {
    // Observability overhead column: the recorder only observes clock
    // charges, so the traced run must be bit-identical in modeled time.
    auto oc = std::make_shared<ramr::obs::ObservabilityConfig>();
    oc->trace = true;
    oc->trace_capacity = 1 << 15;
    cfg.observability = std::move(oc);
  }
  if (device_count > 1) {
    // Measured balancing: after the first regrid the patch-to-device
    // assignment follows the gpu lanes' observed busy time.
    cfg.balance_method = ramr::amr::BalanceMethod::kMeasured;
  }

  RunResult res;
  res.device_count = device_count;
  res.gpu_direct = gpu_direct;
  std::mutex mu;
  ramr::simmpi::World world(kRanks, ramr::perf::ipa().network);
  world.run([&](ramr::simmpi::Communicator& comm) {
    ramr::app::Simulation sim(cfg, &comm);
    sim.initialize();
    sim.run(steps);
    const double step = sim.modeled_seconds() / steps;
    ramr::vgpu::Timeline* tl = sim.timeline();
    double wire = tl->busy(tl->lane("net")) + tl->busy(tl->lane("d2h")) +
                  tl->busy(tl->lane("h2d"));
    double peer = 0.0;
    std::uint64_t peer_bytes = 0;
    if (ramr::vgpu::Topology* topo = sim.topology()) {
      for (int s = 0; s < topo->device_count(); ++s) {
        peer_bytes += topo->device(s).transfers().peer_bytes;
        for (int d = 0; d < topo->device_count(); ++d) {
          if (s != d) {
            peer += tl->busy(
                tl->lane(ramr::vgpu::Topology::peer_lane_name(s, d)));
          }
        }
      }
    }
    const ramr::hydro::FieldSummary summary = sim.composite_summary();
    std::lock_guard<std::mutex> lock(mu);
    if (step > res.step_s) {
      res.step_s = step;
    }
    res.wire_staging_s += wire;
    res.peer_s += peer;
    res.peer_bytes += peer_bytes;
    res.summary = summary;  // allreduced: identical on every rank
  });
  return res;
}

bool same_physics(const ramr::hydro::FieldSummary& a,
                  const ramr::hydro::FieldSummary& b) {
  return a.mass == b.mass && a.internal_energy == b.internal_energy &&
         a.kinetic_energy == b.kinetic_energy;
}

}  // namespace

int main() {
  const bool fast = std::getenv("RAMR_BENCH_FAST") != nullptr;
  const int steps = 5;
  const int n = fast ? 192 : 320;

  std::printf(
      "Multi-device ranks: %d ranks, triple point %dx%d, 3 levels, "
      "async overlap\n"
      "peer link: NVLink-class all-to-all; measured device balancing\n\n",
      kRanks, n, n);

  std::vector<RunResult> runs;
  runs.push_back(run(1, false, steps, n));
  runs.push_back(run(2, false, steps, n));
  runs.push_back(run(4, false, steps, n));
  runs.push_back(run(2, true, steps, n));

  // Observability-overhead column: the same configs with span tracing on.
  std::vector<RunResult> traced;
  for (const RunResult& r : runs) {
    traced.push_back(run(r.device_count, r.gpu_direct, steps, n,
                         /*traced=*/true));
  }

  const RunResult& base = runs[0];
  ramr::perf::Table t({22, 12, 14, 14, 10, 12});
  t.header({"config", "s/step", "wire+staging", "peer busy", "speedup",
            "traced s/st"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const std::string label = std::to_string(r.device_count) + " device" +
                              (r.device_count > 1 ? "s" : "") +
                              (r.gpu_direct ? " +gpu_direct" : "");
    t.row({label, ramr::perf::Table::seconds(r.step_s),
           ramr::perf::Table::seconds(r.wire_staging_s),
           ramr::perf::Table::seconds(r.peer_s),
           ramr::perf::Table::ratio(base.step_s / r.step_s),
           ramr::perf::Table::seconds(traced[i].step_s)});
  }

  // --- Hard asserts ---------------------------------------------------
  for (const RunResult& r : runs) {
    if (!same_physics(r.summary, base.summary)) {
      std::printf("\nFAIL: physics differs with %d devices%s: mass %.17e vs "
                  "%.17e, ie %.17e vs %.17e, ke %.17e vs %.17e\n",
                  r.device_count, r.gpu_direct ? " (gpu_direct)" : "",
                  r.summary.mass, base.summary.mass,
                  r.summary.internal_energy, base.summary.internal_energy,
                  r.summary.kinetic_energy, base.summary.kinetic_energy);
      return 1;
    }
  }
  std::printf("\nOK: physics bit-identical across device counts and wire "
              "modes\n");

  for (std::size_t i : {std::size_t{1}, std::size_t{2}}) {
    if (runs[i].step_s >= base.step_s) {
      std::printf("FAIL: %d devices do not beat 1 device (%.3e >= %.3e "
                  "s/step)\n",
                  runs[i].device_count, runs[i].step_s, base.step_s);
      return 1;
    }
    if (runs[i].peer_bytes == 0) {
      std::printf("FAIL: no peer-link traffic with %d devices (cross-device "
                  "plans did not engage)\n",
                  runs[i].device_count);
      return 1;
    }
  }
  std::printf("OK: 2- and 4-device ranks beat the 1-device step time\n");

  const RunResult& staged = runs[1];
  const RunResult& direct = runs[3];
  if (direct.wire_staging_s >= staged.wire_staging_s) {
    std::printf("FAIL: gpu_direct does not reduce wire+staging seconds "
                "(%.3e >= %.3e)\n",
                direct.wire_staging_s, staged.wire_staging_s);
    return 1;
  }
  if (!same_physics(direct.summary, staged.summary)) {
    std::printf("FAIL: gpu_direct changes the physics\n");
    return 1;
  }
  std::printf("OK: gpu_direct strictly reduces wire+staging seconds "
              "(%.3e -> %.3e) with identical physics\n",
              staged.wire_staging_s, direct.wire_staging_s);

  // Tracing is a passive observer of the modeled clock: the traced runs
  // must reproduce the untraced modeled time (and physics) BIT-identically
  // — any drift means the recorder charged time it should only watch.
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (traced[i].step_s != runs[i].step_s ||
        !same_physics(traced[i].summary, runs[i].summary)) {
      std::printf("FAIL: tracing changed the run with %d devices%s "
                  "(%.17e vs %.17e s/step)\n",
                  runs[i].device_count,
                  runs[i].gpu_direct ? " (gpu_direct)" : "",
                  traced[i].step_s, runs[i].step_s);
      return 1;
    }
  }
  std::printf("OK: span tracing is modeled-time neutral (bit-identical "
              "s/step on every config)\n");

  // Machine-readable record (alongside BENCH_fig10.json/BENCH_fig11.json).
  if (FILE* json = std::fopen("BENCH_multidevice.json", "w")) {
    std::fprintf(json, "{\n  \"ranks\": %d,\n  \"grid\": %d,\n"
                 "  \"configs\": [\n", kRanks, n);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      std::fprintf(
          json,
          "    {\"devices\": %d, \"gpu_direct\": %s, \"s_per_step\": %.6e, "
          "\"wire_staging_s\": %.6e, \"peer_busy_s\": %.6e, "
          "\"peer_bytes\": %llu, \"speedup_vs_1dev\": %.4f, "
          "\"traced_s_per_step\": %.6e, "
          "\"mass\": %.17e, \"internal_energy\": %.17e, "
          "\"kinetic_energy\": %.17e}%s\n",
          r.device_count, r.gpu_direct ? "true" : "false", r.step_s,
          r.wire_staging_s, r.peer_s,
          static_cast<unsigned long long>(r.peer_bytes),
          base.step_s / r.step_s, traced[i].step_s, r.summary.mass,
          r.summary.internal_energy,
          r.summary.kinetic_energy, i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_multidevice.json\n");
  }
  return 0;
}
