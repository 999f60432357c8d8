// Multi-lane timing model for asynchronous execution.
//
// The SimClock answers "how many modeled seconds of work were charged,
// by component" — a serial account. The Timeline answers "WHEN does each
// piece of work complete if independent engines run concurrently": every
// lane (a compute stream, the communication stream, the NIC) owns a time
// cursor on the shared clock, operations advance the lane they run on,
// and cross-lane ordering is imposed only where the program records it
// (events, message arrivals, collective rendezvous). The completion time
// of overlapped work is therefore the MAX of the dependency chains, not
// the sum of the charges — which is exactly the paper's claim for
// GPU-resident AMR: wire time hidden behind compute costs nothing.
//
// Attachment is opt-in: without a Timeline on the SimClock every charge
// is serial and nothing changes (the synchronous model of PR 3). With
// one attached, every SimClock charge advances the ACTIVE lane (a scope
// stack, like ComponentScope; lane 0 "host" is the default), so code
// that never touches lanes still serializes naturally. Overlap appears
// only where a caller deliberately routes work onto another lane
// (LaneScope, Stream::bind_lane) between a fork and a join.
//
// Accounting:
//   busy(lane)       modeled seconds of work charged on the lane
//   makespan()       max lane cursor = completion time of the rank
//   serial_seconds() what the synchronous model would have charged for
//                    the same run: every charge, PLUS the costs the
//                    async model deliberately does not pay (a receiver
//                    re-paying wire time, see Communicator::recv)
//   overlap_seconds_saved() = serial_seconds() - makespan()
#pragma once

#include <string>
#include <vector>

namespace ramr::vgpu {

class SimClock;

/// Per-rank multi-lane virtual time. Not thread-safe: one rank, one
/// thread, like the SimClock it attaches to.
class Timeline {
 public:
  /// Lane 0 always exists: the host/compute lane every charge lands on
  /// unless a scope routes it elsewhere. The transfer engines "comm",
  /// "net", "d2h" and "h2d" also exist from construction, at time 0.
  static constexpr int kHostLane = 0;

  /// Attaches to `clock`: every subsequent clock charge advances the
  /// active lane. Detaches on destruction.
  explicit Timeline(SimClock& clock);
  ~Timeline();

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Returns the lane with this name, creating it at the current host
  /// cursor if it does not exist yet.
  int lane(const std::string& name);
  std::size_t lane_count() const { return lanes_.size(); }
  const std::string& lane_name(int lane) const;

  /// Current cursor of one lane / of the active lane.
  double now(int lane) const;
  double now() const { return now(active_lane()); }
  int active_lane() const { return active_stack_.back(); }

  /// Cross-lane ordering: cursor(lane) = max(cursor(lane), t). Waits add
  /// no busy time — idle is exactly what overlap removes.
  void advance(int lane, double t);

  /// Collective rendezvous on the active lane: like advance(), but the
  /// forward jump is booked as imbalance idle — load-imbalance wait
  /// that exists identically in the synchronous world yet is absent
  /// from its serial account, so overlap_seconds_saved() excludes it
  /// rather than mistaking it for lost overlap.
  void rendezvous(double t);

  /// Books load-imbalance idle directly (the receiver's wait beyond the
  /// wire time when a sender lags — see Communicator::recv).
  void add_imbalance_idle(double seconds) { imbalance_idle_ += seconds; }
  double imbalance_idle() const { return imbalance_idle_; }

  /// Completion time of everything issued so far (max over lanes),
  /// including cross-rank waits (rendezvous idle, lagging senders).
  double makespan() const;

  /// makespan() with the imbalance idle removed: the completion time
  /// comparable to the synchronous model's clock total, which is a pure
  /// busy sum and never contained wait time. Use this when comparing
  /// async and sync step times; by construction
  /// comparable_seconds() == serial_seconds() - overlap_seconds_saved().
  double comparable_seconds() const { return makespan() - imbalance_idle_; }

  /// Work charged on one lane / on all lanes.
  double busy(int lane) const;
  double busy_total() const { return busy_total_; }

  /// What the synchronous single-cursor model charges for the same run.
  double serial_seconds() const { return busy_total_ + serial_only_; }

  /// Records a cost the synchronous model pays that this model does not
  /// (the receiver's serial re-pay of wire time).
  void add_serial_only(double seconds) { serial_only_ += seconds; }

  /// Modeled seconds the asynchronous schedule saves over the serial
  /// one — the headline counter of the async subsystem: the comm/net
  /// lane work hidden off the critical path (plus the receiver re-pays
  /// that no longer exist), minus any time the critical path stalled on
  /// wire that failed to hide. Imbalance idle — collective rendezvous
  /// waits and the part of a message wait caused by a lagging sender —
  /// is excluded from the comparison: it is pure load imbalance, present
  /// identically in the synchronous world but absent from its serial
  /// account.
  double overlap_seconds_saved() const {
    return serial_seconds() + imbalance_idle_ - makespan();
  }

  /// Re-anchors every cursor at zero (benches reset with the clock).
  void reset();

  /// SimClock hook: `seconds` of work just charged; runs on the active
  /// lane starting at its cursor.
  void on_charge(double seconds);

  // Scope management (prefer LaneScope). Pushing forks the lane from the
  // previously active one: ops on the new lane are issued now, so they
  // cannot start earlier than the issuing lane's cursor.
  void push_lane(int lane);
  /// Like push_lane but WITHOUT the fork: the routed work was already
  /// enqueued on `lane` at an earlier point (stream operations recorded
  /// at begin time, gated on event/message arrival — the pre-issued
  /// receive processing of a split-phase exchange), so it continues from
  /// the lane's own cursor instead of the issuing lane's present.
  void push_lane_preissued(int lane) { active_stack_.push_back(lane); }
  void pop_lane();

 private:
  struct Lane {
    std::string name;
    double cursor = 0.0;
    double busy = 0.0;
  };

  SimClock* clock_;
  std::vector<Lane> lanes_;
  std::vector<int> active_stack_;
  double busy_total_ = 0.0;
  double serial_only_ = 0.0;
  double imbalance_idle_ = 0.0;
};

/// RAII active-lane scope: charges within go to `lane`, forked from the
/// previously active lane — or, with `preissued`, continuing from the
/// lane's own cursor (work recorded on the lane earlier and gated on
/// arrival events, not issued now). A null timeline or negative lane
/// makes the scope a no-op, so call sites need no branching.
class LaneScope {
 public:
  LaneScope(Timeline* timeline, int lane, bool preissued = false)
      : timeline_(lane >= 0 ? timeline : nullptr) {
    if (timeline_ != nullptr) {
      if (preissued) {
        timeline_->push_lane_preissued(lane);
      } else {
        timeline_->push_lane(lane);
      }
    }
  }
  ~LaneScope() {
    if (timeline_ != nullptr) {
      timeline_->pop_lane();
    }
  }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  Timeline* timeline_;
};

}  // namespace ramr::vgpu
