#include "cfg/config.hpp"

#include <algorithm>
#include <cmath>

#include "app/problem_registry.hpp"
#include "obs/observability.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/logger.hpp"

namespace ramr::cfg {

namespace {

// ---------------------------------------------------------------------
// Reader: one JSON object being validated. Typed getters consume keys;
// finish() turns every unconsumed key into an unknown-key error naming
// its dotted path. Every object in the schema goes through one Reader,
// so a typo anywhere in the document fails loudly instead of silently
// falling back to a default.
class Reader {
 public:
  Reader(const Json& value, std::string path)
      : value_(&value), path_(std::move(path)) {
    RAMR_INPUT_CHECK(value.is_object(),
                     "config key \"" << path_ << "\": expected an object, got "
                                     << Json::type_name(value.type()));
  }

  const std::string& path() const { return path_; }

  std::string path_of(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  bool has(const std::string& key) const {
    return value_->find(key) != nullptr;
  }

  /// Marks `key` consumed and returns its value (null when absent).
  const Json* consume(const std::string& key) {
    const Json* v = value_->find(key);
    if (v != nullptr) {
      seen_.push_back(key);
    }
    return v;
  }

  bool get_bool(const std::string& key, bool def) {
    const Json* v = consume(key);
    if (v == nullptr) {
      return def;
    }
    RAMR_INPUT_CHECK(v->is_bool(),
                     "config key \"" << path_of(key)
                         << "\": expected a bool, got "
                         << Json::type_name(v->type()));
    return v->as_bool();
  }

  double get_number(const std::string& key, double def) {
    const Json* v = consume(key);
    if (v == nullptr) {
      return def;
    }
    RAMR_INPUT_CHECK(v->is_number(),
                     "config key \"" << path_of(key)
                         << "\": expected a number, got "
                         << Json::type_name(v->type()));
    return v->as_number();
  }

  std::int64_t get_integer(const std::string& key, std::int64_t def) {
    const Json* v = consume(key);
    if (v == nullptr) {
      return def;
    }
    RAMR_INPUT_CHECK(v->is_integer(),
                     "config key \"" << path_of(key)
                                     << "\": expected an integer, got "
                                     << (v->is_number()
                                             ? "a non-integral number"
                                             : Json::type_name(v->type())));
    return v->as_integer();
  }

  int get_int(const std::string& key, int def) {
    return static_cast<int>(get_integer(key, def));
  }

  std::string get_string(const std::string& key, const std::string& def) {
    const Json* v = consume(key);
    if (v == nullptr) {
      return def;
    }
    RAMR_INPUT_CHECK(v->is_string(),
                     "config key \"" << path_of(key)
                         << "\": expected a string, got "
                         << Json::type_name(v->type()));
    return v->as_string();
  }

  /// [x, y] pair of numbers.
  std::array<double, 2> get_pair(const std::string& key,
                                 std::array<double, 2> def) {
    const Json* v = consume(key);
    if (v == nullptr) {
      return def;
    }
    RAMR_INPUT_CHECK(v->is_array() && v->as_array().size() == 2 &&
                         v->as_array()[0].is_number() &&
                         v->as_array()[1].is_number(),
                     "config key \"" << path_of(key)
                                     << "\": expected an array of two numbers");
    return {v->as_array()[0].as_number(), v->as_array()[1].as_number()};
  }

  /// Unknown-key check; call after consuming everything the schema knows.
  void finish() const {
    for (const auto& [key, unused] : value_->as_object()) {
      (void)unused;
      if (std::find(seen_.begin(), seen_.end(), key) == seen_.end()) {
        RAMR_INPUT_FAIL("unknown config key \"" << path_of(key) << "\"");
      }
    }
  }

 private:
  const Json* value_;
  std::string path_;
  std::vector<std::string> seen_;
};

// Range checks with the path in the message.
void require_ge(double v, double lo, const std::string& path) {
  RAMR_INPUT_CHECK(v >= lo, "config key \"" << path << "\": must be >= " << lo
                                            << ", got " << v);
}

void require_gt(double v, double lo, const std::string& path) {
  RAMR_INPUT_CHECK(v > lo, "config key \"" << path << "\": must be > " << lo
                                           << ", got " << v);
}

FluidState parse_state(const Json& value, const std::string& path,
                       FluidState def = {}) {
  Reader r(value, path);
  FluidState s;
  s.density = r.get_number("density", def.density);
  s.energy = r.get_number("energy", def.energy);
  s.xvel = r.get_number("xvel", def.xvel);
  s.yvel = r.get_number("yvel", def.yvel);
  require_gt(s.density, 0.0, r.path_of("density"));
  require_gt(s.energy, 0.0, r.path_of("energy"));
  r.finish();
  return s;
}

Json state_to_json(const FluidState& s) {
  Json j = Json::make_object();
  j.set("density", Json(s.density));
  j.set("energy", Json(s.energy));
  j.set("xvel", Json(s.xvel));
  j.set("yvel", Json(s.yvel));
  return j;
}

Region parse_region(const Json& value, const std::string& path) {
  Reader r(value, path);
  Region reg;
  const std::string shape = r.get_string("shape", "");
  RAMR_INPUT_CHECK(shape == "box" || shape == "circle" || shape == "ramp",
                   "config key \"" << r.path_of("shape")
                                   << "\": expected \"box\", \"circle\" or "
                                      "\"ramp\", got \""
                                   << shape << "\"");
  if (shape == "box") {
    reg.shape = Region::Shape::kBox;
    if (const Json* v = r.consume("state")) {
      reg.state = parse_state(*v, r.path_of("state"));
    }
    // Per-side bounds stay unset when omitted: {x_max: 0.5} is the
    // half-space x < 0.5, ghost cells included.
    if (r.has("x_min")) reg.x_min = r.get_number("x_min", 0.0);
    if (r.has("x_max")) reg.x_max = r.get_number("x_max", 0.0);
    if (r.has("y_min")) reg.y_min = r.get_number("y_min", 0.0);
    if (r.has("y_max")) reg.y_max = r.get_number("y_max", 0.0);
    if (reg.x_min && reg.x_max) {
      RAMR_INPUT_CHECK(*reg.x_min < *reg.x_max,
                       "config key \"" << r.path_of("x_min")
                                       << "\": x_min must be < x_max");
    }
    if (reg.y_min && reg.y_max) {
      RAMR_INPUT_CHECK(*reg.y_min < *reg.y_max,
                       "config key \"" << r.path_of("y_min")
                                       << "\": y_min must be < y_max");
    }
    reg.interface_side = r.get_string("interface_side", "");
    reg.interface_amplitude = r.get_number("interface_amplitude", 0.0);
    reg.interface_wavelength = r.get_number("interface_wavelength", 1.0);
    reg.interface_phase = r.get_number("interface_phase", 0.0);
    require_gt(reg.interface_wavelength, 0.0,
               r.path_of("interface_wavelength"));
    if (!reg.interface_side.empty()) {
      const bool names_present_bound =
          (reg.interface_side == "x_min" && reg.x_min) ||
          (reg.interface_side == "x_max" && reg.x_max) ||
          (reg.interface_side == "y_min" && reg.y_min) ||
          (reg.interface_side == "y_max" && reg.y_max);
      RAMR_INPUT_CHECK(names_present_bound,
                       "config key \"" << r.path_of("interface_side")
                           << "\": must name a bound present on this box "
                              "(\"x_min\", \"x_max\", \"y_min\" or \"y_max\"), "
                              "got \""
                           << reg.interface_side << "\"");
    }
  } else if (shape == "circle") {
    reg.shape = Region::Shape::kCircle;
    if (const Json* v = r.consume("state")) {
      reg.state = parse_state(*v, r.path_of("state"));
    }
    reg.center = r.get_pair("center", {0.0, 0.0});
    reg.radius = r.get_number("radius", 0.0);
    require_gt(reg.radius, 0.0, r.path_of("radius"));
  } else {
    reg.shape = Region::Shape::kRamp;
    const std::string axis = r.get_string("axis", "x");
    RAMR_INPUT_CHECK(axis == "x" || axis == "y",
                     "config key \"" << r.path_of("axis")
                                     << "\": expected \"x\" or \"y\", got \""
                                     << axis << "\"");
    reg.ramp_axis = axis == "x" ? 0 : 1;
    reg.ramp_from = r.get_number("from", 0.0);
    reg.ramp_to = r.get_number("to", 1.0);
    RAMR_INPUT_CHECK(reg.ramp_from < reg.ramp_to,
                     "config key \"" << r.path_of("from")
                         << "\": must be < \"to\", got ["
                         << reg.ramp_from << ", " << reg.ramp_to << "]");
    if (const Json* v = r.consume("state0")) {
      reg.ramp_state0 = parse_state(*v, r.path_of("state0"));
    }
    if (const Json* v = r.consume("state1")) {
      reg.ramp_state1 = parse_state(*v, r.path_of("state1"));
    }
  }
  r.finish();
  return reg;
}

Json region_to_json(const Region& reg) {
  Json j = Json::make_object();
  switch (reg.shape) {
    case Region::Shape::kBox: {
      j.set("shape", Json("box"));
      j.set("state", state_to_json(reg.state));
      if (reg.x_min) j.set("x_min", Json(*reg.x_min));
      if (reg.x_max) j.set("x_max", Json(*reg.x_max));
      if (reg.y_min) j.set("y_min", Json(*reg.y_min));
      if (reg.y_max) j.set("y_max", Json(*reg.y_max));
      if (!reg.interface_side.empty()) {
        j.set("interface_side", Json(reg.interface_side));
        j.set("interface_amplitude", Json(reg.interface_amplitude));
        j.set("interface_wavelength", Json(reg.interface_wavelength));
        j.set("interface_phase", Json(reg.interface_phase));
      }
      break;
    }
    case Region::Shape::kCircle: {
      j.set("shape", Json("circle"));
      j.set("state", state_to_json(reg.state));
      Json c = Json::make_array();
      c.push_back(Json(reg.center[0]));
      c.push_back(Json(reg.center[1]));
      j.set("center", std::move(c));
      j.set("radius", Json(reg.radius));
      break;
    }
    case Region::Shape::kRamp: {
      j.set("shape", Json("ramp"));
      j.set("axis", Json(reg.ramp_axis == 0 ? "x" : "y"));
      j.set("from", Json(reg.ramp_from));
      j.set("to", Json(reg.ramp_to));
      j.set("state0", state_to_json(reg.ramp_state0));
      j.set("state1", state_to_json(reg.ramp_state1));
      break;
    }
  }
  return j;
}

vgpu::DeviceSpec device_preset(const std::string& name,
                               const std::string& path) {
  if (name == "tesla_k20x") return vgpu::tesla_k20x();
  if (name == "xeon_e5_2670_node") return vgpu::xeon_e5_2670_node();
  if (name == "xeon_e5_2670_socket") return vgpu::xeon_e5_2670_socket();
  if (name == "opteron_6274_node") return vgpu::opteron_6274_node();
  RAMR_INPUT_FAIL("config key \"" << path
                      << "\": unknown device preset \"" << name
                      << "\"; known presets: tesla_k20x, xeon_e5_2670_node, "
                         "xeon_e5_2670_socket, opteron_6274_node");
}

vgpu::DeviceSpec parse_device(const Json& value, const std::string& path) {
  Reader r(value, path);
  vgpu::DeviceSpec spec =
      device_preset(r.get_string("preset", "tesla_k20x"), r.path_of("preset"));
  spec.name = r.get_string("name", spec.name);
  spec.peak_gflops = r.get_number("peak_gflops", spec.peak_gflops);
  spec.mem_bw_gbs = r.get_number("mem_bw_gbs", spec.mem_bw_gbs);
  spec.launch_overhead_s =
      r.get_number("launch_overhead_s", spec.launch_overhead_s);
  spec.pcie_bw_gbs = r.get_number("pcie_bw_gbs", spec.pcie_bw_gbs);
  spec.pcie_lat_s = r.get_number("pcie_lat_s", spec.pcie_lat_s);
  spec.half_saturation_threads =
      r.get_number("half_saturation_threads", spec.half_saturation_threads);
  spec.mem_bytes = static_cast<std::uint64_t>(r.get_integer(
      "mem_bytes", static_cast<std::int64_t>(spec.mem_bytes)));
  spec.is_accelerator = r.get_bool("is_accelerator", spec.is_accelerator);
  require_gt(spec.peak_gflops, 0.0, r.path_of("peak_gflops"));
  require_gt(spec.mem_bw_gbs, 0.0, r.path_of("mem_bw_gbs"));
  require_ge(spec.launch_overhead_s, 0.0, r.path_of("launch_overhead_s"));
  require_ge(spec.pcie_bw_gbs, 0.0, r.path_of("pcie_bw_gbs"));
  require_ge(spec.pcie_lat_s, 0.0, r.path_of("pcie_lat_s"));
  require_ge(spec.half_saturation_threads, 0.0,
             r.path_of("half_saturation_threads"));
  RAMR_INPUT_CHECK(spec.mem_bytes > 0,
                   "config key \"" << r.path_of("mem_bytes")
                       << "\": must be positive");
  r.finish();
  return spec;
}

vgpu::PeerLinkSpec peer_link_preset(const std::string& name,
                                    const std::string& path) {
  if (name == "nvlink") return vgpu::nvlink2();
  if (name == "pcie_switch") return vgpu::pcie_switch();
  if (name == "ideal") return vgpu::ideal_peer_link();
  RAMR_INPUT_FAIL("config key \"" << path << "\": unknown peer link preset \""
                                  << name
                                  << "\"; known presets: nvlink, pcie_switch, "
                                     "ideal");
}

vgpu::TopologySpec parse_topology(const Json& value, const std::string& path) {
  Reader r(value, path);
  vgpu::TopologySpec spec;
  spec.device_count = r.get_int("device_count", spec.device_count);
  require_ge(spec.device_count, 1, r.path_of("device_count"));
  if (const Json* v = r.consume("link")) {
    Reader l(*v, r.path_of("link"));
    spec.link =
        peer_link_preset(l.get_string("preset", "nvlink"), l.path_of("preset"));
    spec.link.name = l.get_string("name", spec.link.name);
    spec.link.latency_s = l.get_number("latency_s", spec.link.latency_s);
    spec.link.bw_gbs = l.get_number("bw_gbs", spec.link.bw_gbs);
    require_ge(spec.link.latency_s, 0.0, l.path_of("latency_s"));
    require_gt(spec.link.bw_gbs, 0.0, l.path_of("bw_gbs"));
    l.finish();
  }
  spec.gpu_direct = r.get_bool("gpu_direct", spec.gpu_direct);
  r.finish();
  return spec;
}

Json topology_to_json(const vgpu::TopologySpec& spec) {
  Json j = Json::make_object();
  j.set("device_count", Json(spec.device_count));
  Json link = Json::make_object();
  link.set("name", Json(spec.link.name));
  link.set("latency_s", Json(spec.link.latency_s));
  link.set("bw_gbs", Json(spec.link.bw_gbs));
  j.set("link", std::move(link));
  j.set("gpu_direct", Json(spec.gpu_direct));
  return j;
}

const char* balance_method_name(amr::BalanceMethod m) {
  switch (m) {
    case amr::BalanceMethod::kGreedy:
      return "greedy";
    case amr::BalanceMethod::kMeasured:
      return "measured";
    case amr::BalanceMethod::kMorton:
      break;
  }
  return "morton";
}

simmpi::NetworkSpec network_preset(const std::string& name,
                                   const std::string& path) {
  if (name == "ideal") return simmpi::ideal_network();
  if (name == "fdr_infiniband") return simmpi::fdr_infiniband();
  if (name == "cray_gemini") return simmpi::cray_gemini();
  RAMR_INPUT_FAIL("config key \"" << path
                      << "\": unknown network preset \"" << name
                      << "\"; known presets: ideal, fdr_infiniband, "
                         "cray_gemini");
}

simmpi::NetworkSpec parse_network(const Json& value, const std::string& path) {
  Reader r(value, path);
  simmpi::NetworkSpec spec =
      network_preset(r.get_string("preset", "ideal"), r.path_of("preset"));
  spec.name = r.get_string("name", spec.name);
  spec.latency_s = r.get_number("latency_s", spec.latency_s);
  spec.bw_gbs = r.get_number("bw_gbs", spec.bw_gbs);
  require_ge(spec.latency_s, 0.0, r.path_of("latency_s"));
  require_gt(spec.bw_gbs, 0.0, r.path_of("bw_gbs"));
  r.finish();
  return spec;
}

}  // namespace

ScenarioSpec parse_scenario(const Json& value, const std::string& path) {
  Reader r(value, path);
  ScenarioSpec spec;
  spec.name = r.get_string("name", "custom");
  RAMR_INPUT_CHECK(!spec.name.empty(),
                   "config key \"" << r.path_of("name")
                       << "\": must be non-empty");
  spec.domain_lower = r.get_pair("domain_lower", {0.0, 0.0});
  spec.domain_upper = r.get_pair("domain_upper", {1.0, 1.0});
  RAMR_INPUT_CHECK(spec.domain_lower[0] < spec.domain_upper[0] &&
                       spec.domain_lower[1] < spec.domain_upper[1],
                   "config key \"" << r.path_of("domain_upper")
                       << "\": domain_upper must exceed domain_lower on "
                          "both axes");
  spec.gamma = r.get_number("gamma", 1.4);
  require_gt(spec.gamma, 1.0, r.path_of("gamma"));
  spec.gravity = r.get_pair("gravity", {0.0, 0.0});
  if (const Json* v = r.consume("background")) {
    spec.background = parse_state(*v, r.path_of("background"));
  }
  if (const Json* v = r.consume("regions")) {
    RAMR_INPUT_CHECK(v->is_array(),
                     "config key \"" << r.path_of("regions")
                         << "\": expected an array, got "
                         << Json::type_name(v->type()));
    for (std::size_t i = 0; i < v->as_array().size(); ++i) {
      spec.regions.push_back(
          parse_region(v->as_array()[i],
                       r.path_of("regions") + "[" + std::to_string(i) + "]"));
    }
  }
  r.finish();
  return spec;
}

Json to_json(const ScenarioSpec& spec) {
  Json j = Json::make_object();
  j.set("name", Json(spec.name));
  Json lo = Json::make_array();
  lo.push_back(Json(spec.domain_lower[0]));
  lo.push_back(Json(spec.domain_lower[1]));
  j.set("domain_lower", std::move(lo));
  Json hi = Json::make_array();
  hi.push_back(Json(spec.domain_upper[0]));
  hi.push_back(Json(spec.domain_upper[1]));
  j.set("domain_upper", std::move(hi));
  j.set("gamma", Json(spec.gamma));
  Json g = Json::make_array();
  g.push_back(Json(spec.gravity[0]));
  g.push_back(Json(spec.gravity[1]));
  j.set("gravity", std::move(g));
  j.set("background", state_to_json(spec.background));
  Json regions = Json::make_array();
  for (const Region& reg : spec.regions) {
    regions.push_back(region_to_json(reg));
  }
  j.set("regions", std::move(regions));
  return j;
}

namespace {

/// JSON names of the injection sites, indexed by util::FaultSite.
const char* const kFaultSiteKeys[util::kFaultSiteCount] = {
    "launch",           "alloc", "message_drop",
    "message_delay",    "checkpoint_write", "step"};

util::FaultSiteConfig parse_fault_site(const Json& value,
                                       const std::string& path) {
  Reader r(value, path);
  util::FaultSiteConfig s;
  s.probability = r.get_number("probability", s.probability);
  s.step_probability = r.get_number("step_probability", s.step_probability);
  require_ge(s.probability, 0.0, r.path_of("probability"));
  require_ge(s.step_probability, 0.0, r.path_of("step_probability"));
  RAMR_INPUT_CHECK(s.probability <= 1.0 && s.step_probability <= 1.0,
                   "config key \"" << path << "\": probabilities must be <= 1");
  if (const Json* v = r.consume("at_steps")) {
    RAMR_INPUT_CHECK(v->is_array(), "config key \"" << r.path_of("at_steps")
                     << "\": expected an array of integers");
    for (const Json& e : v->as_array()) {
      RAMR_INPUT_CHECK(e.is_integer(), "config key \"" << r.path_of("at_steps")
                       << "\": expected an array of integers");
      s.at_steps.push_back(static_cast<int>(e.as_integer()));
    }
  }
  if (const Json* v = r.consume("at_events")) {
    RAMR_INPUT_CHECK(v->is_array(), "config key \"" << r.path_of("at_events")
                     << "\": expected an array of integers");
    for (const Json& e : v->as_array()) {
      RAMR_INPUT_CHECK(e.is_integer(), "config key \"" << r.path_of("at_events")
                       << "\": expected an array of integers");
      s.at_events.push_back(e.as_integer());
    }
  }
  s.max_injections = r.get_int("max_injections", s.max_injections);
  require_ge(s.max_injections, -1, r.path_of("max_injections"));
  r.finish();
  return s;
}

util::FaultConfig parse_faults(const Json& value, const std::string& path) {
  Reader r(value, path);
  util::FaultConfig f;
  f.seed = static_cast<std::uint64_t>(
      r.get_integer("seed", static_cast<std::int64_t>(f.seed)));
  f.launch_retries = r.get_int("launch_retries", f.launch_retries);
  f.message_delay_s = r.get_number("message_delay_s", f.message_delay_s);
  f.drop_timeout_s = r.get_number("drop_timeout_s", f.drop_timeout_s);
  f.truncate_bytes = r.get_int("truncate_bytes", f.truncate_bytes);
  require_ge(f.launch_retries, 0, r.path_of("launch_retries"));
  require_ge(f.message_delay_s, 0.0, r.path_of("message_delay_s"));
  require_ge(f.drop_timeout_s, 0.0, r.path_of("drop_timeout_s"));
  require_ge(f.truncate_bytes, 1, r.path_of("truncate_bytes"));
  for (int s = 0; s < util::kFaultSiteCount; ++s) {
    if (const Json* v = r.consume(kFaultSiteKeys[s])) {
      f.sites[static_cast<std::size_t>(s)] =
          parse_fault_site(*v, r.path_of(kFaultSiteKeys[s]));
    }
  }
  r.finish();
  return f;
}

Json fault_site_to_json(const util::FaultSiteConfig& s) {
  Json j = Json::make_object();
  j.set("probability", Json(s.probability));
  j.set("step_probability", Json(s.step_probability));
  Json steps = Json::make_array();
  for (int v : s.at_steps) {
    steps.push_back(Json(v));
  }
  j.set("at_steps", std::move(steps));
  Json events = Json::make_array();
  for (std::int64_t v : s.at_events) {
    events.push_back(Json(v));
  }
  j.set("at_events", std::move(events));
  j.set("max_injections", Json(s.max_injections));
  return j;
}

Json faults_to_json(const util::FaultConfig& f) {
  Json j = Json::make_object();
  j.set("seed", Json(static_cast<std::int64_t>(f.seed)));
  j.set("launch_retries", Json(f.launch_retries));
  j.set("message_delay_s", Json(f.message_delay_s));
  j.set("drop_timeout_s", Json(f.drop_timeout_s));
  j.set("truncate_bytes", Json(f.truncate_bytes));
  for (int s = 0; s < util::kFaultSiteCount; ++s) {
    j.set(kFaultSiteKeys[s],
          fault_site_to_json(f.sites[static_cast<std::size_t>(s)]));
  }
  return j;
}

}  // namespace

RunConfig parse_run_config(const Json& root) {
  Reader r(root, "");
  RunConfig config;

  // --- problem selection: a registered name, or an inline scenario.
  const bool has_scenario = r.has("scenario");
  if (const Json* v = r.consume("problem")) {
    RAMR_INPUT_CHECK(v->is_string(),
                     "config key \"problem\": expected a string, got "
                         << Json::type_name(v->type()));
    RAMR_INPUT_CHECK(!has_scenario,
                     "config key \"problem\": cannot be combined with an "
                     "inline \"scenario\" block (the scenario names itself)");
    const std::string& name = v->as_string();
    if (!app::ProblemRegistry::instance().contains(name)) {
      std::string known;
      for (const std::string& n : app::ProblemRegistry::instance().names()) {
        known += known.empty() ? n : ", " + n;
      }
      RAMR_INPUT_FAIL("config key \"problem\": unknown problem \""
                      << name << "\"; registered problems: " << known);
    }
    config.sim.problem = name;
  }
  if (const Json* v = r.consume("scenario")) {
    auto spec = std::make_shared<ScenarioSpec>(parse_scenario(*v, "scenario"));
    config.sim.problem = spec->name;
    config.sim.scenario = std::move(spec);
  }

  if (const Json* v = r.consume("grid")) {
    Reader g(*v, "grid");
    config.sim.nx = g.get_int("nx", config.sim.nx);
    config.sim.ny = g.get_int("ny", config.sim.ny);
    require_ge(config.sim.nx, 1, g.path_of("nx"));
    require_ge(config.sim.ny, 1, g.path_of("ny"));
    g.finish();
  }

  if (const Json* v = r.consume("amr")) {
    Reader a(*v, "amr");
    config.sim.max_levels = a.get_int("max_levels", config.sim.max_levels);
    config.sim.ratio = a.get_int("ratio", config.sim.ratio);
    config.sim.regrid_interval =
        a.get_int("regrid_interval", config.sim.regrid_interval);
    config.sim.tag_buffer = a.get_int("tag_buffer", config.sim.tag_buffer);
    config.sim.tag_threshold =
        a.get_number("tag_threshold", config.sim.tag_threshold);
    config.sim.max_patch_cells =
        a.get_integer("max_patch_cells", config.sim.max_patch_cells);
    config.sim.min_patch_size =
        a.get_int("min_patch_size", config.sim.min_patch_size);
    config.sim.cluster_efficiency =
        a.get_number("cluster_efficiency", config.sim.cluster_efficiency);
    const std::string bm = a.get_string(
        "balance_method", balance_method_name(config.sim.balance_method));
    if (bm == "morton") {
      config.sim.balance_method = amr::BalanceMethod::kMorton;
    } else if (bm == "greedy") {
      config.sim.balance_method = amr::BalanceMethod::kGreedy;
    } else if (bm == "measured") {
      config.sim.balance_method = amr::BalanceMethod::kMeasured;
    } else {
      RAMR_INPUT_FAIL("config key \"" << a.path_of("balance_method")
                          << "\": expected \"morton\", \"greedy\" or "
                             "\"measured\", got \""
                          << bm << "\"");
    }
    require_ge(config.sim.max_levels, 1, a.path_of("max_levels"));
    // The refinement machinery (operator stencils, rind widths, tag
    // coarsening) is built for power-of-two ratios; anything else only
    // "works" until the first regrid.
    RAMR_INPUT_CHECK(
            config.sim.max_levels == 1 ||
                (config.sim.ratio == 2 || config.sim.ratio == 4),
            "config key \"" << a.path_of("ratio")
                            << "\": refinement ratio must be 2 or 4 when "
                               "max_levels > 1, got "
                            << config.sim.ratio);
    require_ge(config.sim.ratio, 1, a.path_of("ratio"));
    require_ge(config.sim.regrid_interval, 1, a.path_of("regrid_interval"));
    require_ge(config.sim.tag_buffer, 0, a.path_of("tag_buffer"));
    require_ge(config.sim.tag_threshold, 0.0, a.path_of("tag_threshold"));
    require_ge(static_cast<double>(config.sim.max_patch_cells), 1,
               a.path_of("max_patch_cells"));
    require_ge(config.sim.min_patch_size, 1, a.path_of("min_patch_size"));
    require_gt(config.sim.cluster_efficiency, 0.0,
               a.path_of("cluster_efficiency"));
    RAMR_INPUT_CHECK(config.sim.cluster_efficiency <= 1.0,
                     "config key \"" << a.path_of("cluster_efficiency")
                                     << "\": must be <= 1, got "
                                     << config.sim.cluster_efficiency);
    a.finish();
  }

  if (const Json* v = r.consume("execution")) {
    Reader e(*v, "execution");
    config.sim.async_overlap =
        e.get_bool("async_overlap", config.sim.async_overlap);
    config.sim.wide_overlap =
        e.get_bool("wide_overlap", config.sim.wide_overlap);
    e.finish();
  }

  if (const Json* v = r.consume("device")) {
    config.sim.device = parse_device(*v, "device");
  }
  if (const Json* v = r.consume("topology")) {
    config.sim.topology = parse_topology(*v, "topology");
  }
  if (const Json* v = r.consume("network")) {
    config.network = parse_network(*v, "network");
  }

  if (const Json* v = r.consume("run")) {
    Reader b(*v, "run");
    config.run.max_steps = b.get_int("max_steps", config.run.max_steps);
    config.run.end_time = b.get_number("end_time", config.run.end_time);
    config.run.ranks = b.get_int("ranks", config.run.ranks);
    require_ge(config.run.max_steps, 0, b.path_of("max_steps"));
    require_gt(config.run.end_time, 0.0, b.path_of("end_time"));
    require_ge(config.run.ranks, 1, b.path_of("ranks"));
    b.finish();
  }

  if (const Json* v = r.consume("faults")) {
    config.sim.faults =
        std::make_shared<util::FaultConfig>(parse_faults(*v, "faults"));
  }

  if (const Json* v = r.consume("observability")) {
    Reader o(*v, "observability");
    obs::ObservabilityConfig oc;
    oc.trace = o.get_bool("trace", oc.trace);
    oc.trace_capacity = o.get_int("trace_capacity", oc.trace_capacity);
    oc.trace_path = o.get_string("trace_path", oc.trace_path);
    oc.metrics = o.get_bool("metrics", oc.metrics);
    oc.metrics_stride = o.get_int("metrics_stride", oc.metrics_stride);
    oc.metrics_path = o.get_string("metrics_path", oc.metrics_path);
    oc.log_level = o.get_string("log_level", oc.log_level);
    require_ge(oc.trace_capacity, 1, o.path_of("trace_capacity"));
    require_ge(oc.metrics_stride, 1, o.path_of("metrics_stride"));
    if (!oc.log_level.empty()) {
      try {
        (void)util::parse_log_level(oc.log_level);
      } catch (const util::Error&) {
        RAMR_INPUT_FAIL("config key \"" << o.path_of("log_level")
                        << "\": unknown log level \"" << oc.log_level
                        << "\" (expected debug, info, warn, or error)");
      }
    }
    o.finish();
    config.sim.observability =
        std::make_shared<obs::ObservabilityConfig>(std::move(oc));
  }

  if (const Json* v = r.consume("output")) {
    Reader o(*v, "output");
    config.output.basename = o.get_string("basename", config.output.basename);
    config.output.checkpoint_interval = o.get_int(
        "checkpoint_interval", config.output.checkpoint_interval);
    config.output.vtk_interval =
        o.get_int("vtk_interval", config.output.vtk_interval);
    require_ge(config.output.checkpoint_interval, 0,
               o.path_of("checkpoint_interval"));
    require_ge(config.output.vtk_interval, 0, o.path_of("vtk_interval"));
    o.finish();
  }

  r.finish();
  return config;
}

RunConfig parse_run_config_text(std::string_view text) {
  return parse_run_config(Json::parse(text));
}

Json to_json(const RunConfig& config) {
  Json j = Json::make_object();
  if (config.sim.scenario != nullptr) {
    j.set("scenario", to_json(*config.sim.scenario));
  } else {
    j.set("problem", Json(config.sim.problem));
  }

  Json grid = Json::make_object();
  grid.set("nx", Json(config.sim.nx));
  grid.set("ny", Json(config.sim.ny));
  j.set("grid", std::move(grid));

  Json amr = Json::make_object();
  amr.set("max_levels", Json(config.sim.max_levels));
  amr.set("ratio", Json(config.sim.ratio));
  amr.set("regrid_interval", Json(config.sim.regrid_interval));
  amr.set("tag_buffer", Json(config.sim.tag_buffer));
  amr.set("tag_threshold", Json(config.sim.tag_threshold));
  amr.set("max_patch_cells", Json(config.sim.max_patch_cells));
  amr.set("min_patch_size", Json(config.sim.min_patch_size));
  amr.set("cluster_efficiency", Json(config.sim.cluster_efficiency));
  amr.set("balance_method",
          Json(std::string(balance_method_name(config.sim.balance_method))));
  j.set("amr", std::move(amr));

  Json execution = Json::make_object();
  execution.set("async_overlap", Json(config.sim.async_overlap));
  execution.set("wide_overlap", Json(config.sim.wide_overlap));
  j.set("execution", std::move(execution));

  Json device = Json::make_object();
  device.set("name", Json(config.sim.device.name));
  device.set("peak_gflops", Json(config.sim.device.peak_gflops));
  device.set("mem_bw_gbs", Json(config.sim.device.mem_bw_gbs));
  device.set("launch_overhead_s", Json(config.sim.device.launch_overhead_s));
  device.set("pcie_bw_gbs", Json(config.sim.device.pcie_bw_gbs));
  device.set("pcie_lat_s", Json(config.sim.device.pcie_lat_s));
  device.set("half_saturation_threads",
             Json(config.sim.device.half_saturation_threads));
  device.set("mem_bytes",
             Json(static_cast<std::int64_t>(config.sim.device.mem_bytes)));
  device.set("is_accelerator", Json(config.sim.device.is_accelerator));
  j.set("device", std::move(device));

  // Emitted only when the rank has more than one device or a non-default
  // wire mode (like the faults block): the default single-device run
  // carries no topology, and `{}` keeps round-tripping to itself.
  {
    const vgpu::TopologySpec def;
    const vgpu::TopologySpec& t = config.sim.topology;
    if (t.device_count != def.device_count || t.gpu_direct != def.gpu_direct ||
        t.link.name != def.link.name ||
        t.link.latency_s != def.link.latency_s ||
        t.link.bw_gbs != def.link.bw_gbs) {
      j.set("topology", topology_to_json(t));
    }
  }

  Json network = Json::make_object();
  network.set("name", Json(config.network.name));
  network.set("latency_s", Json(config.network.latency_s));
  network.set("bw_gbs", Json(config.network.bw_gbs));
  j.set("network", std::move(network));

  Json run = Json::make_object();
  run.set("max_steps", Json(config.run.max_steps));
  run.set("end_time", Json(config.run.end_time));
  run.set("ranks", Json(config.run.ranks));
  j.set("run", std::move(run));

  // Emitted only when configured (like the scenario block): the default
  // run carries no faults, and `{}` must keep round-tripping to itself.
  if (config.sim.faults != nullptr) {
    j.set("faults", faults_to_json(*config.sim.faults));
  }

  // Same deal: no observability block unless the run asked for one.
  if (config.sim.observability != nullptr) {
    const obs::ObservabilityConfig& oc = *config.sim.observability;
    Json observability = Json::make_object();
    observability.set("trace", Json(oc.trace));
    observability.set("trace_capacity", Json(oc.trace_capacity));
    observability.set("trace_path", Json(oc.trace_path));
    observability.set("metrics", Json(oc.metrics));
    observability.set("metrics_stride", Json(oc.metrics_stride));
    observability.set("metrics_path", Json(oc.metrics_path));
    observability.set("log_level", Json(oc.log_level));
    j.set("observability", std::move(observability));
  }

  Json output = Json::make_object();
  output.set("basename", Json(config.output.basename));
  output.set("checkpoint_interval", Json(config.output.checkpoint_interval));
  output.set("vtk_interval", Json(config.output.vtk_interval));
  j.set("output", std::move(output));

  return j;
}

}  // namespace ramr::cfg
