#include "vgpu/timeline.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "vgpu/sim_clock.hpp"

namespace ramr::vgpu {

Timeline::Timeline(SimClock& clock) : clock_(&clock) {
  // The host lane and the four transfer engines (comm kernels, NIC, the
  // two PCIe copy engines) exist from the start, so reading one of them
  // never moves a later fork.
  for (const char* name : {"host", "comm", "net", "d2h", "h2d"}) {
    lanes_.push_back(Lane{name, 0.0, 0.0});
  }
  active_stack_.push_back(kHostLane);
  RAMR_REQUIRE(clock_->timeline() == nullptr,
               "SimClock already has an attached timeline");
  clock_->set_timeline(this);
}

Timeline::~Timeline() {
  if (clock_->timeline() == this) {
    clock_->set_timeline(nullptr);
  }
}

int Timeline::lane(const std::string& name) {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  // New lanes are born at the host cursor: they model engines that exist
  // from the start but have been idle, and idle lanes never drag the
  // makespan backwards.
  lanes_.push_back(Lane{name, lanes_[kHostLane].cursor, 0.0});
  return static_cast<int>(lanes_.size() - 1);
}

const std::string& Timeline::lane_name(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].name;
}

double Timeline::now(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].cursor;
}

void Timeline::advance(int lane, double t) {
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (t > l.cursor) {
    if (ChargeListener* listener = clock_->listener()) {
      listener->on_lane_wait(lane, l.cursor, t, /*rendezvous=*/false);
    }
    l.cursor = t;
  }
}

void Timeline::rendezvous(double t) {
  const int lane = active_lane();
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  if (t > l.cursor) {
    if (ChargeListener* listener = clock_->listener()) {
      listener->on_lane_wait(lane, l.cursor, t, /*rendezvous=*/true);
    }
    imbalance_idle_ += t - l.cursor;
    l.cursor = t;
  }
}

double Timeline::makespan() const {
  double m = 0.0;
  for (const Lane& l : lanes_) {
    m = std::max(m, l.cursor);
  }
  return m;
}

double Timeline::busy(int lane) const {
  return lanes_[static_cast<std::size_t>(lane)].busy;
}

void Timeline::reset() {
  for (Lane& l : lanes_) {
    l.cursor = 0.0;
    l.busy = 0.0;
  }
  busy_total_ = 0.0;
  serial_only_ = 0.0;
  imbalance_idle_ = 0.0;
}

void Timeline::on_charge(double seconds) {
  Lane& l = lanes_[static_cast<std::size_t>(active_lane())];
  l.cursor += seconds;
  l.busy += seconds;
  busy_total_ += seconds;
}

void Timeline::push_lane(int lane) {
  RAMR_DEBUG_ASSERT(lane >= 0 && static_cast<std::size_t>(lane) < lanes_.size());
  // Fork: work routed here is issued by the currently active lane, so it
  // cannot start before that lane's present.
  advance(lane, lanes_[static_cast<std::size_t>(active_lane())].cursor);
  active_stack_.push_back(lane);
}

void Timeline::pop_lane() {
  RAMR_REQUIRE(active_stack_.size() > 1, "lane scope underflow");
  active_stack_.pop_back();
}

}  // namespace ramr::vgpu
