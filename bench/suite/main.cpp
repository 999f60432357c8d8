// bench_suite: runs ONE workload of the two-clock benchmark suite and
// prints its record as one JSON line on stdout (run.sh drives it; see
// README.md).
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1
//               [--smoke] [--scratch DIR]
//
// Exit status: 0 when every gate passed, 1 when a gate failed (the
// record is still printed), 2 on a usage error (nothing printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "suite.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"

namespace {

using suite::Kind;
using suite::Record;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kHost: return "host";
    case Kind::kModeled: return "modeled";
    case Kind::kCount: return "count";
  }
  return "host";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All 17 significant digits; JSON has no NaN or infinity, so a
/// non-finite observation (a failed gate's drift) prints as null.
std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Keeps exactly the catalogue of the requested mode; metrics a workload
/// does not produce read 0 (not applicable there).
void complete(Record& rec, bool trace) {
  const auto& catalogue =
      trace ? suite::per_layer_catalogue() : suite::end_to_end_catalogue();
  if (trace) {
    rec.set("failed_ops_frac",
            rec.attempted > 0 ? static_cast<double>(rec.failed) / rec.attempted : 1.0);
  }
  std::map<std::string, suite::Metric> kept;
  for (const suite::MetricDef& d : catalogue) {
    const auto it = rec.metrics.find(d.name);
    kept[d.name] = it != rec.metrics.end() ? it->second
                                           : suite::Metric{0.0, d.unit, d.kind};
  }
  rec.metrics = std::move(kept);
}

void print(const Record& rec) {
  std::string out = "{\"correct\": ";
  out += rec.errors.empty() && rec.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rec.attempted);
  out += ", \"failed\": " + std::to_string(rec.failed);
  std::string metrics, kinds;
  for (const auto& [name, m] : rec.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + quoted(name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
    kinds += (kinds.empty() ? "" : ", ") + quoted(name) + ": " + quoted(kind_name(m.kind));
  }
  out += ", \"metrics\": {" + metrics + "}, \"kinds\": {" + kinds + "}";
  std::string spans;
  for (const auto& [name, s] : rec.spans) {
    spans += (spans.empty() ? "" : ", ") + quoted(name) + ": {\"count\": " +
             std::to_string(s.count) + ", \"total_s\": " + number(s.total_s) +
             ", \"self_s\": " + number(s.self_s) + "}";
  }
  out += ", \"spans\": {" + spans + "}";
  std::string info;
  for (const auto& [name, v] : rec.info) {
    info += (info.empty() ? "" : ", ") + quoted(name) + ": " + number(v);
  }
  out += ", \"info\": {" + info + "}";
  std::string errors;
  for (const std::string& e : rec.errors) {
    errors += (errors.empty() ? "" : ", ") + quoted(e);
  }
  out += ", \"errors\": [" + errors + "]";
#ifdef __VERSION__
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out += ", \"machine\": {\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_workers\": " +
         std::to_string(ramr::util::ThreadPool::global().worker_count()) +
         ", \"compiler\": " + quoted(compiler) +
         ", \"build_type\": " + quoted(RAMR_BENCH_BUILD_TYPE) + "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--scratch DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  suite::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--scratch") {
      options.scratch_dir = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const bool service = options.workload == "service_mixed";
  if (!service && !suite::is_simulation_workload(options.workload)) {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  // The server logs every admission; keep stderr for warnings.
  ramr::util::Logger::instance().set_level(ramr::util::LogLevel::kWarn);

  Record rec;
  try {
    rec = service ? suite::run_service_workload(options)
                  : suite::run_simulation_workload(options);
  } catch (const std::exception& e) {
    rec.fail(std::string("threw: ") + e.what());
  }
  if (rec.attempted == 0) {
    rec.attempted = 1;  // nothing ran: the one attempt failed
  }
  if (!rec.errors.empty() && rec.failed == 0) {
    rec.failed = rec.attempted;
  }
  complete(rec, options.trace);
  print(rec);
  return rec.errors.empty() && rec.failed == 0 ? 0 : 1;
}
