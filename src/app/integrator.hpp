// LagrangianEulerianIntegrator (paper Fig. 6): manages the adaptive
// hierarchy and advances the simulation. One advance() performs the
// CloverLeaf timestep on every level (non-subcycled, as CleverLeaf),
// each stage one LevelKernelRunner call per level (fused launches over
// the level's patches), with halo exchanges between stages, conservative
// fine-to-coarse synchronisation afterwards, and periodic regridding —
// charging each phase to the named clock components the paper's Fig. 11
// reports (hydro / boundary / timestep / sync / regrid).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "amr/gridding_algorithm.hpp"
#include "app/level_kernel_runner.hpp"
#include "app/reflective_boundary.hpp"
#include "hier/patch_hierarchy.hpp"
#include "xfer/coarsen_schedule.hpp"
#include "xfer/refine_schedule.hpp"

namespace ramr::app {

/// Cumulative transfer-layer traffic of one rank's integration, counted
/// by the aggregated-message engine (diagnostics for the paper's Fig. 10
/// communication analysis: messages shrink to one per peer per fill).
struct TransferCounters {
  std::uint64_t halo_fills = 0;         ///< schedule executions (fill + sync)
  std::uint64_t messages_sent = 0;      ///< aggregated peer messages sent
  std::uint64_t messages_received = 0;  ///< aggregated peer messages received
  std::uint64_t bytes_sent = 0;         ///< wire bytes sent
  /// Fills executed split-phase (begin / overlapped compute / finish) on
  /// the async-overlap path; 0 on the synchronous path.
  std::uint64_t split_fills = 0;
  /// Always 0: every schedule execution runs the compiled transfer
  /// plans, which have no fallback. Kept because the benchmark suite
  /// (bench/suite) still reads it as `xfer.plan_fallbacks_per_fill`.
  std::uint64_t plan_fallbacks = 0;

  /// The per-step fill windows of the integrator, named after the
  /// exchanged quantity. Windows executed more than once per step (the
  /// pressure fill after EOS and after the Lagrangian predictor, the
  /// post-cell fill after each advection sweep) accumulate into one slot.
  enum Window : int {
    kState = 0,   ///< start-of-step state exchange (hidden by EOS)
    kPressure,    ///< pressure fills (hidden by viscosity / acceleration)
    kViscosity,   ///< viscosity fill (hidden by dt + Lagrangian predictor)
    kPreAdvec,    ///< pre-advection fill (hidden by the first cell sweep)
    kPostCell,    ///< post-cell fills (hidden by the momentum sweeps)
    kWindowCount
  };
  static const char* window_name(int w) {
    static constexpr const char* kNames[kWindowCount] = {
        "state", "pressure", "viscosity", "preadvec", "postcell"};
    return kNames[w];
  }

  /// Per-window breakdown: how often each exchange ran, how often it ran
  /// split-phase, how much comm/net-lane work the window issued, and how
  /// much modeled time the timeline attributes to it (the
  /// overlap_seconds_saved delta across it) — which fill windows
  /// actually hide time, not just the step aggregate.
  struct WindowStats {
    std::uint64_t fills = 0;
    std::uint64_t split_fills = 0;
    /// comm+net lane busy seconds issued inside the window (an upper
    /// bound on what the window could hide); 0 without a timeline.
    double comm_seconds = 0.0;
    double overlap_seconds_saved = 0.0;
  };
  std::array<WindowStats, kWindowCount> window{};
};

/// Hierarchy-wide time integration.
class LagrangianEulerianIntegrator {
 public:
  LagrangianEulerianIntegrator(hier::PatchHierarchy& hierarchy,
                               LevelKernelRunner& runner,
                               amr::GriddingAlgorithm& gridding,
                               const Fields& fields,
                               xfer::ParallelContext& ctx,
                               ReflectiveBoundary& bc, vgpu::SimClock& clock,
                               int regrid_interval = 10);

  /// Builds the initial hierarchy and the communication schedules.
  void initialize(double time);

  /// One timestep; returns the dt taken.
  double advance();

  double time() const { return time_; }
  int step_count() const { return step_count_; }
  double last_dt() const { return last_dt_; }

  /// Conservation diagnostics over the composite mesh: cells covered by
  /// a finer level are excluded, so totals are physical.
  hydro::FieldSummary composite_summary();

  /// Cumulative aggregated-message traffic since construction.
  const TransferCounters& transfer_counters() const { return xfer_counters_; }

  /// Rebuilds every communication schedule (after any regrid).
  void rebuild_schedules();

  /// Restores the integration state after a checkpoint reload.
  void restore_state(double time, int step_count) {
    time_ = time;
    step_count_ = step_count;
  }

 private:
  /// Books one finished schedule execution into the counters.
  void count_fill(const xfer::RefineSchedule& sched,
                  TransferCounters::Window window, bool split);

  /// Synchronous fill of every level's schedule, coarse to fine.
  void fill_all(std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
                TransferCounters::Window window);

  /// Runs `body` as one hydro stage: the "stage:hydro" annotation, the
  /// "hydro" clock component and launch tag `tag`.
  void hydro_stage(vgpu::LaunchTag tag, const std::function<void()>& body);

  /// How a fill window overlaps its exchange with the stage it feeds.
  enum class Overlap {
    kNone,   ///< fill, then the whole stage (synchronous)
    kWhole,  ///< begin, the whole stage (it reads no ghost), finish
    kSplit,  ///< begin, the interior sweep, finish, the boundary rind
  };

  /// Runs the stage of one fill window over every level.
  using StageFn = std::function<void(hydro::SweepPart)>;

  /// One fill window: the exchange of `scheds` together with the stage
  /// that consumes its ghosts, run in overlap `mode`. This is the only
  /// place that opens a window's annotation, clock-component and
  /// launch-tag scopes and books its TransferCounters::window stats.
  /// `stage` is called with kAll (kNone, kWhole) or with kInterior and
  /// then kRind (kSplit). In every mode the launch inputs match the
  /// synchronous order, so fields are bit-identical
  /// (docs/async_overlap.md).
  void fill_window(TransferCounters::Window window,
                   std::vector<std::unique_ptr<xfer::RefineSchedule>>& scheds,
                   Overlap mode, const StageFn& stage);

  /// True when wide overlap picks the window modes (stencil windows
  /// split, the viscosity window whole): timeline attached,
  /// wide_overlap requested, distributed world.
  bool wide_overlap_active() const;

  /// Per-device compute cost observed since the previous regrid: the
  /// "gpu<i>" lane busy delta plus the device's current cell count — the
  /// measured inputs of amr::BalanceMethod::kMeasured. Only meaningful
  /// with a multi-device topology in ctx_.
  std::vector<amr::MeasuredDeviceCosts> measure_device_costs();

  hier::PatchHierarchy* hierarchy_;
  LevelKernelRunner* runner_;
  amr::GriddingAlgorithm* gridding_;
  Fields fields_;
  xfer::ParallelContext* ctx_;
  ReflectiveBoundary* bc_;
  vgpu::SimClock* clock_;
  int regrid_interval_;

  xfer::RefineAlgorithm alg_state_;
  xfer::RefineAlgorithm alg_pressure_;
  xfer::RefineAlgorithm alg_viscosity_;
  xfer::RefineAlgorithm alg_preadvec_;
  xfer::RefineAlgorithm alg_postcell_;
  xfer::CoarsenAlgorithm alg_sync_;

  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_state_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_pressure_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_viscosity_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_preadvec_;
  std::vector<std::unique_ptr<xfer::RefineSchedule>> sched_postcell_;
  std::vector<std::unique_ptr<xfer::CoarsenSchedule>> sched_sync_;

  double time_ = 0.0;
  double last_dt_ = 0.0;
  int step_count_ = 0;
  TransferCounters xfer_counters_;
  /// Cumulative gpu-lane busy at the last measurement, one per device.
  std::vector<double> gpu_busy_snapshot_;
};

}  // namespace ramr::app
