// Shared pieces of the two-clock benchmark suite (README.md): options,
// the result record, seeded input generation, host span recording and
// the statistics the metrics are reported with.
//
// Host seconds come from std::chrono::steady_clock, measured from the
// outside around public calls. Modeled seconds come from the library's
// SimClock. The two are never mixed in one metric.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vgpu/device.hpp"
#include "vgpu/sim_clock.hpp"

namespace suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command line of one workload process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the timed work: each workload runs the steps (or jobs) the
  /// reference machine completes in this many seconds (README.md).
  double seconds = 15.0;
  /// false: the untraced pass, reporting end-to-end metrics. true: an
  /// untraced and a traced pass of half the size each, plus probes,
  /// reporting per-layer metrics.
  bool trace = false;
  /// 10 steps per pass and 4 service jobs; every gate stays on.
  bool smoke = false;
  /// Checkpoints and service outputs are written below this directory.
  std::string scratch_dir = ".";
};

/// How compare.py judges a metric: host seconds are noisy and compared
/// by medians and pair wins; modeled seconds are deterministic per seed
/// and compared to a relative 1e-9; counts must repeat exactly.
enum class Kind { kHost, kModeled, kCount };

struct Metric {
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kHost;
};

/// Host time of one annotation name over a traced pass.
struct SpanStat {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< span durations
  double self_s = 0.0;   ///< durations minus the child spans they contain
};

using SpanStats = std::map<std::string, SpanStat>;

/// What a workload process reports (printed as one JSON line by main).
struct Record {
  std::int64_t attempted = 0;  ///< steps (simulations) or jobs (service)
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< gate failures; empty = correct
  std::map<std::string, Metric> metrics;
  SpanStats spans;  ///< traced pass, rank 0
  /// Run size and gate observations (steps, jobs, mass drift).
  std::map<std::string, double> info;

  /// Adds a catalogued metric (unit and kind come from the catalogue); a
  /// non-finite value is a gate failure (JSON cannot carry it) and is
  /// stored as 0.
  void set(const std::string& name, double value);
  void fail(const std::string& why) { errors.push_back(why); }
};

/// One metric of the catalogue. BENCHMARK.json lists the same names and
/// units; run.py checks that they agree.
struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

/// Reported with tracing off (--trace 0): what a user of the system sees.
const std::vector<MetricDef>& end_to_end_catalogue();
/// Reported by the --trace 1 run: single layers. A metric that does not
/// apply to a workload reads 0 (README.md lists where each applies).
const std::vector<MetricDef>& per_layer_catalogue();

/// Cumulative modeled time by clock component and device counters.
struct DeviceCounters {
  std::map<std::string, double> components;
  std::uint64_t launches = 0;
  std::array<std::uint64_t, ramr::vgpu::kLaunchTagCount> tag_launches{};
  double kernel_s = 0.0;
  ramr::vgpu::TransferLog pcie;

  static DeviceCounters sample(const ramr::vgpu::SimClock& clock,
                               const ramr::vgpu::Device& device);
};

/// Sets the vgpu launch, kernel and PCIe metrics, the app.modeled_*
/// components and the three Fig. 11 grinds from what accrued between
/// `before` and `after` over `steps` steps and `cells` cell updates.
void set_device_metrics(Record& rec, const DeviceCounters& before,
                        const DeviceCounters& after, double steps, double cells);

/// splitmix64: the seed's whole input stream, identical on every
/// platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// `v` with 3 significant digits, for gate messages.
std::string sci(double v);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Records the host duration of every AnnotationScope the program opens
/// on one SimClock ("stage:hydro", "window:state", "xfer:pack", "sync",
/// "regrid", "server:round", ...), plus the bench's own spans opened
/// with begin()/end(). Attach and detach through the constructor and
/// destructor; one thread only (the clock's). Passive like every
/// ChargeListener: modeled time is unchanged.
class HostSpans : public ramr::vgpu::ChargeListener {
 public:
  explicit HostSpans(ramr::vgpu::SimClock& clock);
  ~HostSpans() override;
  HostSpans(const HostSpans&) = delete;
  HostSpans& operator=(const HostSpans&) = delete;

  void begin(const std::string& name) { on_annotation_begin(name); }
  void end() { on_annotation_end(); }
  const SpanStats& stats() const { return stats_; }

  void on_charge(const std::string&, double) override {}
  void on_annotation_begin(const std::string& name) override;
  void on_annotation_end() override;

 private:
  struct Open {
    std::string name;
    Clock::time_point start;
    double child_s = 0.0;
  };
  ramr::vgpu::SimClock& clock_;
  std::vector<Open> open_;
  SpanStats stats_;
};

/// The service's untraced round clock: timestamps the start of every
/// "server:round" and ignores every other annotation. SimulationServer
/// has no per-round hook, so this is the lightest way to time rounds.
class RoundClock : public ramr::vgpu::ChargeListener {
 public:
  explicit RoundClock(ramr::vgpu::SimClock& clock);
  ~RoundClock() override;
  RoundClock(const RoundClock&) = delete;
  RoundClock& operator=(const RoundClock&) = delete;

  const std::vector<Clock::time_point>& round_starts() const { return starts_; }

  void on_charge(const std::string&, double) override {}
  void on_annotation_begin(const std::string& name) override;

 private:
  ramr::vgpu::SimClock& clock_;
  std::vector<Clock::time_point> starts_;
};

/// Median over `batches` batches of the mean host seconds per call of
/// `calls` back-to-back calls to fn().
template <typename F>
double seconds_per_call(int batches, int calls, F&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) {
      fn();
    }
    per_call.push_back(seconds_since(t0) / calls);
  }
  return median(std::move(per_call));
}

/// Layer probes that need no simulation.
double probe_parallel_for_us();
double probe_charge_ns();

/// Relative mass drift the correctness gate tolerates over a pass (at
/// least 10x the largest drift seen on these workloads; README.md).
inline constexpr double kMassDriftTolerance = 5.0e-3;

/// Entry points (simulation_workloads.cpp, service_workload.cpp).
bool is_simulation_workload(const std::string& name);
Record run_simulation_workload(const Options& options);
Record run_service_workload(const Options& options);

}  // namespace suite
