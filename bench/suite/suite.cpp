#include "suite.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace suite {

namespace {
constexpr Kind kHost = Kind::kHost;
constexpr Kind kModeled = Kind::kModeled;
constexpr Kind kCount = Kind::kCount;
}  // namespace

const std::vector<MetricDef>& end_to_end_catalogue() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", kHost},
      {"host_cell_updates_per_s", "1/s", kHost},
      {"step_wall_p50_ms", "ms", kHost},
      {"step_wall_p95_ms", "ms", kHost},
      {"modeled_s_per_step", "s", kModeled},
      {"peak_rss_mb", "MB", kHost},
  };
  return kDefs;
}

const std::vector<MetricDef>& per_layer_catalogue() {
  static const std::vector<MetricDef> kDefs = {
      // util / vgpu
      {"util.parallel_for_us", "us", kHost},
      {"vgpu.charge_ns", "ns", kHost},
      {"vgpu.launches_per_step", "count", kCount},
      {"vgpu.launches_per_step.hydro", "count", kCount},
      {"vgpu.launches_per_step.pack", "count", kCount},
      {"vgpu.launches_per_step.unpack", "count", kCount},
      {"vgpu.launches_per_step.local_copy", "count", kCount},
      {"vgpu.launches_per_step.regrid", "count", kCount},
      {"vgpu.launches_per_step.rind", "count", kCount},
      {"vgpu.kernel_s_per_step", "s", kModeled},
      {"vgpu.pcie_bytes_per_step", "B", kCount},
      {"vgpu.pcie_crossings_per_step", "count", kCount},
      {"vgpu.overlap_saved_s_per_step", "s", kModeled},
      // app: modeled components, then host self time per step
      {"app.modeled_hydro_s_per_step", "s", kModeled},
      {"app.modeled_boundary_s_per_step", "s", kModeled},
      {"app.modeled_timestep_s_per_step", "s", kModeled},
      {"app.modeled_sync_s_per_step", "s", kModeled},
      {"app.modeled_regrid_s_per_step", "s", kModeled},
      {"app.host_stage_hydro_ms", "ms", kHost},
      {"app.host_stage_timestep_ms", "ms", kHost},
      {"app.host_window_state_ms", "ms", kHost},
      {"app.host_window_pressure_ms", "ms", kHost},
      {"app.host_window_viscosity_ms", "ms", kHost},
      {"app.host_window_preadvec_ms", "ms", kHost},
      {"app.host_window_postcell_ms", "ms", kHost},
      {"app.host_sync_ms", "ms", kHost},
      {"app.host_unannotated_ms", "ms", kHost},
      // hydro
      {"hydro.grind_ns", "ns", kModeled},
      {"hydro.composite_summary_ms", "ms", kHost},
      // amr
      {"amr.grind_regrid_ns", "ns", kModeled},
      {"amr.host_regrid_ms_per_regrid", "ms", kHost},
      {"amr.regrids", "count", kCount},
      {"amr.patches", "count", kCount},
      {"amr.cells_tagged_per_regrid", "count", kCount},
      {"amr.load_imbalance", "ratio", kCount},
      // xfer
      {"xfer.grind_boundary_ns", "ns", kModeled},
      {"xfer.rebuild_schedules_ms", "ms", kHost},
      {"xfer.host_pack_ms", "ms", kHost},
      {"xfer.host_wire_ms", "ms", kHost},
      {"xfer.host_unpack_ms", "ms", kHost},
      {"xfer.host_local_ms", "ms", kHost},
      {"xfer.messages_per_step", "count", kCount},
      {"xfer.bytes_per_step", "B", kCount},
      {"xfer.hidden_fraction.state", "fraction", kModeled},
      {"xfer.hidden_fraction.pressure", "fraction", kModeled},
      {"xfer.hidden_fraction.viscosity", "fraction", kModeled},
      {"xfer.hidden_fraction.preadvec", "fraction", kModeled},
      {"xfer.hidden_fraction.postcell", "fraction", kModeled},
      {"xfer.plan_fallbacks_per_fill", "fraction", kCount},
      // simmpi
      {"simmpi.messages_per_step", "count", kCount},
      {"simmpi.bytes_per_step", "B", kCount},
      {"simmpi.allreduce_us", "us", kHost},
      // pdat
      {"pdat.checkpoint_write_ms", "ms", kHost},
      {"pdat.checkpoint_read_ms", "ms", kHost},
      {"pdat.checkpoint_mb", "MB", kCount},
      // svc
      {"svc.fusion_saved_frac", "fraction", kModeled},
      {"svc.launches_per_round", "count", kCount},
      {"svc.retries", "count", kCount},
      {"svc.jobs_per_hour_modeled", "1/h", kModeled},
      {"svc.host_jobs_per_s", "1/s", kHost},
      // the benchmark itself
      {"trace.overhead_frac", "fraction", kHost},
      {"failed_ops_frac", "fraction", kCount},
  };
  return kDefs;
}

void Record::set(const std::string& name, double value) {
  const MetricDef* def = nullptr;
  for (const auto* catalogue : {&end_to_end_catalogue(), &per_layer_catalogue()}) {
    for (const MetricDef& d : *catalogue) {
      if (name == d.name) {
        def = &d;
      }
    }
  }
  RAMR_REQUIRE(def != nullptr, "metric " << name << " is not catalogued");
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics[name] = Metric{value, def->unit, def->kind};
}

DeviceCounters DeviceCounters::sample(const ramr::vgpu::SimClock& clock,
                                      const ramr::vgpu::Device& device) {
  DeviceCounters c;
  c.components = clock.components();
  c.launches = device.launch_count();
  for (int t = 0; t < ramr::vgpu::kLaunchTagCount; ++t) {
    c.tag_launches[static_cast<std::size_t>(t)] =
        device.launch_count(static_cast<ramr::vgpu::LaunchTag>(t));
  }
  c.kernel_s = device.kernel_seconds();
  c.pcie = device.transfers();
  return c;
}

void set_device_metrics(Record& rec, const DeviceCounters& before,
                        const DeviceCounters& after, double steps, double cells) {
  const auto count_per_step = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b) / steps;
  };
  const auto component = [&](const char* name) {
    const auto a = after.components.find(name);
    const auto b = before.components.find(name);
    return (a == after.components.end() ? 0.0 : a->second) -
           (b == before.components.end() ? 0.0 : b->second);
  };
  rec.set("vgpu.launches_per_step", count_per_step(after.launches, before.launches));
  static constexpr std::array<std::pair<ramr::vgpu::LaunchTag, const char*>, 6>
      kTags = {{{ramr::vgpu::LaunchTag::kHydro, "hydro"},
                {ramr::vgpu::LaunchTag::kTransferPack, "pack"},
                {ramr::vgpu::LaunchTag::kTransferUnpack, "unpack"},
                {ramr::vgpu::LaunchTag::kLocalCopy, "local_copy"},
                {ramr::vgpu::LaunchTag::kRegrid, "regrid"},
                {ramr::vgpu::LaunchTag::kRind, "rind"}}};
  for (const auto& [tag, name] : kTags) {
    const auto t = static_cast<std::size_t>(tag);
    rec.set(std::string("vgpu.launches_per_step.") + name,
            count_per_step(after.tag_launches[t], before.tag_launches[t]));
  }
  rec.set("vgpu.kernel_s_per_step", (after.kernel_s - before.kernel_s) / steps);
  rec.set("vgpu.pcie_bytes_per_step",
          count_per_step(after.pcie.total_bytes(), before.pcie.total_bytes()));
  rec.set("vgpu.pcie_crossings_per_step",
          count_per_step(after.pcie.total_count(), before.pcie.total_count()));
  for (const char* c : {"hydro", "boundary", "timestep", "sync", "regrid"}) {
    rec.set(std::string("app.modeled_") + c + "_s_per_step", component(c) / steps);
  }
  rec.set("hydro.grind_ns", component("hydro") / cells * 1.0e9);
  rec.set("xfer.grind_boundary_ns", component("boundary") / cells * 1.0e9);
  rec.set("amr.grind_regrid_ns", component("regrid") / cells * 1.0e9);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ------------------------------------------------------------ listeners

HostSpans::HostSpans(ramr::vgpu::SimClock& clock) : clock_(clock) {
  RAMR_REQUIRE(clock_.listener() == nullptr,
               "SimClock already has an attached listener");
  clock_.set_listener(this);
}

HostSpans::~HostSpans() {
  if (clock_.listener() == this) {
    clock_.set_listener(nullptr);
  }
}

void HostSpans::on_annotation_begin(const std::string& name) {
  open_.push_back(Open{name, Clock::now(), 0.0});
}

void HostSpans::on_annotation_end() {
  if (open_.empty()) {
    return;  // opened before this listener attached
  }
  const Open span = std::move(open_.back());
  open_.pop_back();
  const double duration = seconds_since(span.start);
  SpanStat& s = stats_[span.name];
  ++s.count;
  s.total_s += duration;
  s.self_s += duration - span.child_s;
  if (!open_.empty()) {
    open_.back().child_s += duration;
  }
}

RoundClock::RoundClock(ramr::vgpu::SimClock& clock) : clock_(clock) {
  RAMR_REQUIRE(clock_.listener() == nullptr,
               "SimClock already has an attached listener");
  clock_.set_listener(this);
}

RoundClock::~RoundClock() {
  if (clock_.listener() == this) {
    clock_.set_listener(nullptr);
  }
}

void RoundClock::on_annotation_begin(const std::string& name) {
  if (name == "server:round") {
    starts_.push_back(Clock::now());
  }
}

// --------------------------------------------------------------- probes

double probe_parallel_for_us() {
  // A trivial n = 4096 body: what the pool's hand-off costs a launch.
  std::vector<double> data(4096, 0.0);
  auto& pool = ramr::util::ThreadPool::global();
  const double s = seconds_per_call(11, 200, [&] {
    pool.parallel_for(static_cast<std::int64_t>(data.size()),
                      [&](std::int64_t begin, std::int64_t end) {
                        for (std::int64_t i = begin; i < end; ++i) {
                          data[static_cast<std::size_t>(i)] += 1.0;
                        }
                      });
  });
  return s * 1.0e6;
}

double probe_charge_ns() {
  // One component scope and one charge: the clock work every kernel
  // launch, copy and message does.
  ramr::vgpu::SimClock clock;
  const double s = seconds_per_call(11, 20000, [&] {
    ramr::vgpu::ComponentScope scope(clock, "hydro");
    clock.charge(1.0e-9);
  });
  return s * 1.0e9;
}

}  // namespace suite
