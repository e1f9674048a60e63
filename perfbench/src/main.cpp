// farm_bench: one run of one decoder-farm workload.
//
//   farm_bench --workload <mix_saturated|mix_paced|harq_closed_loop>
//              --seed N --seconds S --trace 0|1
//              [--trace-out PATH] [--inject-mismatch K] [--pool N]
//              [--setup-reps N]
//
// Prints human-readable notes on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 0 when every decoded job matched its reference and
// the run was healthy, 1 otherwise (after printing the result), 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

// The metric names BENCHMARK.json declares, in its order.
const char* const kEndToEnd[] = {
    "setup_s",        "fps",           "info_mbps", "cpu_us_per_frame",
    "latency_p50_ms", "latency_p90_ms", "rss_mb"};
const char* const kPerLayer[] = {
    "core.engine_us_per_frame.wimax",
    "core.engine_us_per_frame.nr",
    "core.engine_us_per_frame.wlan",
    "core.single_frame_us.wimax",
    "core.single_frame_us.nr",
    "core.single_frame_us.wlan",
    "core.kernel_row_ns",
    "core.reconfigure_us",
    "core.mean_iterations",
    "arch.layer_order_ms",
    "stream.queue_wait_p50_ms",
    "stream.queue_wait_p90_ms",
    "stream.bin_service_p50_ms",
    "stream.frames_per_bin",
    "stream.lane_occupancy",
    "stream.worker_busy_share",
    "stream.reconfigs_per_kframe",
    "stream.steals_per_kframe",
    "stream.submit_blocked_ms",
    "stream.service_construct_ms",
    "stream.synth_us.r0",
    "stream.synth_us.r1",
    "stream.synth_us.r2",
    "stream.synth_us.r3",
    "storage.synth_us.r0",
    "storage.synth_us.r1",
    "storage.synth_us.r2",
    "storage.synth_us.r3",
    "storage.mean_rungs",
    "storage.repaired_share",
    "harq.ack_rate.r0",
    "harq.ack_rate.r1",
    "harq.ack_rate.r2",
    "harq.ack_rate.r3",
    "harq.residual_fer",
    "gen.late_p99_ms",
    "trace.overhead_pct",
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "farm_bench: " << why
            << "\nusage: farm_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--inject-mismatch K] "
               "[--pool N] [--setup-reps N]\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + text);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_int(flag, value));
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_int(flag, value));
      if (opt.seconds <= 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const long long t = parse_int(flag, value);
      if (t != 0 && t != 1) usage("--trace takes 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--inject-mismatch") {
      opt.inject_mismatch = static_cast<int>(parse_int(flag, value));
    } else if (flag == "--pool") {
      opt.pool = static_cast<int>(parse_int(flag, value));
      if (opt.pool < 64) usage("--pool must be at least 64");
    } else if (flag == "--setup-reps") {
      opt.setup_reps = static_cast<int>(parse_int(flag, value));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

void print_result(const Outcome& out, bool correct,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perfbench::Tracer tracer(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "mix_saturated")
      out = perfbench::run_mix(opt, /*paced=*/false, tracer);
    else if (opt.workload == "mix_paced")
      out = perfbench::run_mix(opt, /*paced=*/true, tracer);
    else if (opt.workload == "harq_closed_loop")
      out = perfbench::run_harq_loop(opt, tracer);
    else
      usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::cerr << "farm_bench: run aborted: " << e.what() << "\n";
    return 1;
  }

  // Exactly the declared metrics of this mode, each once, each finite.
  std::vector<Metric> metrics;
  std::set<std::string> seen;
  const auto pick = [&](const char* const* first, const char* const* last) {
    for (const char* const* it = first; it != last; ++it) {
      bool found = false;
      for (const Metric& m : out.metrics)
        if (m.name == *it && seen.insert(m.name).second) {
          if (!std::isfinite(m.value)) {
            std::cerr << "farm_bench: metric " << m.name
                      << " is not finite\n";
            std::exit(1);
          }
          metrics.push_back(m);
          found = true;
        }
      if (!found) {
        std::cerr << "farm_bench: metric " << *it << " was not measured\n";
        std::exit(1);
      }
    }
  };
  if (opt.trace)
    pick(std::begin(kPerLayer), std::end(kPerLayer));
  else
    pick(std::begin(kEndToEnd), std::end(kEndToEnd));

  for (const std::string& line : out.notes)
    std::cerr << "# " << opt.workload << ": " << line << "\n";
  if (opt.trace) {
    for (const Metric& m : out.metrics)
      if (!seen.count(m.name))
        std::cerr << "# " << opt.workload << ": " << m.name << " = "
                  << m.value << " " << m.unit << "\n";
    if (!opt.trace_out.empty()) {
      tracer.write_chrome_json(opt.trace_out);
      std::cerr << "# trace: " << tracer.size() << " spans ("
                << tracer.dropped() << " past the cap) -> " << opt.trace_out
                << "\n";
    }
  }
  if (!out.valid)
    std::cerr << "# " << opt.workload << ": INVALID RUN: "
              << out.invalid_reason << "\n";
  if (out.failed)
    std::cerr << "# " << opt.workload << ": " << out.failed << " of "
              << out.attempted << " operations FAILED verification\n";

  const bool correct = out.failed == 0 && out.valid && out.attempted > 0;
  print_result(out, correct, metrics);
  return correct ? 0 : 1;
}
