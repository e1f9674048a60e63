#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

namespace {

const Clock::time_point kProcessEpoch = Clock::now();

/// Peak resident set size of the process, MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

Clock::time_point at_ns(long long ns) {
  return kProcessEpoch + std::chrono::nanoseconds(ns);
}

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessEpoch)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string tail_note(const std::string& label, const std::vector<double>& ms,
                      double p) {
  const double value = percentile(ms, p);
  const auto beyond = std::count_if(ms.begin(), ms.end(),
                                    [&](double x) { return x > value; });
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s p%g %.3f ms (n=%zu, %ld beyond)",
                label.c_str(), p, value, ms.size(),
                static_cast<long>(beyond));
  return buf;
}

// ---- Tracer ----------------------------------------------------------------

void Tracer::add(Span span) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

long long Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %lld, \"parent\": %lld}}%s\n",
                  s.name.c_str(), s.cat, s.tid,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, const char* cat,
                     long long id, long long parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = std::move(name);
  span_.cat = cat;
  span_.id = id;
  span_.parent = parent;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled()) return;
  span_.end_ns = now_ns();
  tracer_.add(std::move(span_));
}

void trace_report(Tracer& tracer, const stream::StreamReport& report,
                  long long service_epoch_ns) {
  if (!tracer.enabled()) return;
  for (const stream::StreamJob& job : report.jobs) {
    const int tid = 100 + job.worker;  // worker lanes below the driver
    tracer.add({"stream.queue_wait", "stream", tid,
                service_epoch_ns + job.wall_submit_ns,
                service_epoch_ns + job.wall_start_ns, job.id, job.session});
    tracer.add({"stream.decode", "stream", tid,
                service_epoch_ns + job.wall_start_ns,
                service_epoch_ns + job.wall_finish_ns, job.id, job.session});
  }
}

// ---- stream-layer attribution ------------------------------------------

void StreamLayerAcc::add(const stream::StreamReport& report, int workers) {
  // One bin = the jobs one worker stamped with the same start time.
  std::map<std::pair<int, long long>, long long> bin_finish;
  for (const stream::StreamJob& job : report.jobs) {
    queue_wait_ms.push_back(
        static_cast<double>(job.wall_start_ns - job.wall_submit_ns) / 1e6);
    bin_finish.emplace(std::make_pair(job.worker, job.wall_start_ns),
                       job.wall_finish_ns);
  }
  for (const auto& [key, finish] : bin_finish) {
    const double ns = static_cast<double>(finish - key.second);
    bin_service_ms.push_back(ns / 1e6);
    busy_ns += ns;
  }
  jobs += static_cast<long long>(report.jobs.size());
  bins += static_cast<long long>(bin_finish.size());
  reconfigs += report.totals.reconfigurations;
  for (const long long s : report.worker_steals) steals += s;
  capacity_ns += static_cast<double>(workers) *
                 static_cast<double>(report.wall_elapsed_ns);
}

void StreamLayerAcc::emit(Outcome& out, int engine_lanes) const {
  const double per_bin =
      bins ? static_cast<double>(jobs) / static_cast<double>(bins) : 0.0;
  const double kframes = static_cast<double>(std::max<long long>(jobs, 1)) /
                         1e3;
  out.add("stream.queue_wait_p50_ms", percentile(queue_wait_ms, 50), "ms");
  out.add("stream.queue_wait_p90_ms", percentile(queue_wait_ms, 90), "ms");
  out.add("stream.bin_service_p50_ms", percentile(bin_service_ms, 50), "ms");
  out.add("stream.frames_per_bin", per_bin, "frames");
  out.add("stream.lane_occupancy",
          engine_lanes ? per_bin / engine_lanes : 0.0, "share");
  out.add("stream.worker_busy_share",
          capacity_ns > 0 ? busy_ns / capacity_ns : 0.0, "share");
  out.add("stream.reconfigs_per_kframe",
          static_cast<double>(reconfigs) / kframes, "count");
  out.add("stream.steals_per_kframe", static_cast<double>(steals) / kframes,
          "count");
}

// ---- end-to-end figures -------------------------------------------------

namespace {

double median_of(const std::vector<Sample>& samples, double Sample::*field,
                 bool traced) {
  std::vector<double> v;
  for (const Sample& x : samples)
    if (x.traced == traced) v.push_back(x.*field);
  return median(v);
}

/// "fps: min 1, median 2, max 3 (n=4)": the within-run spread.
std::string range_note(const std::string& label, std::vector<double> v) {
  if (v.empty()) return label + ": no samples";
  std::sort(v.begin(), v.end());
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s: min %.6g, median %.6g, max %.6g (n=%zu)",
                label.c_str(), v.front(), median(v), v.back(), v.size());
  return buf;
}

}  // namespace

void emit_end_to_end(const std::vector<Sample>& samples,
                     const std::string& what, Outcome& out) {
  out.add("fps", median_of(samples, &Sample::fps, false), "1/s");
  out.add("info_mbps", median_of(samples, &Sample::info_mbps, false), "Mb/s");
  out.add("cpu_us_per_frame",
          median_of(samples, &Sample::cpu_us_per_frame, false), "us");
  out.add("latency_p50_ms", median_of(samples, &Sample::latency_p50_ms, false),
          "ms");
  out.add("latency_p90_ms", median_of(samples, &Sample::latency_p90_ms, false),
          "ms");
  out.add("rss_mb", peak_rss_mb(), "MB");
  std::vector<double> fps, p50, p90;
  for (const Sample& x : samples)
    if (!x.traced) {
      fps.push_back(x.fps);
      p50.push_back(x.latency_p50_ms);
      p90.push_back(x.latency_p90_ms);
    }
  out.note(std::to_string(fps.size()) + " untraced / " +
           std::to_string(samples.size() - fps.size()) + " traced " + what);
  out.note(range_note("fps per untraced sample", fps));
  out.note(range_note("latency_p50_ms per untraced sample", p50));
  out.note(range_note("latency_p90_ms per untraced sample", p90));
}

void emit_trace_overhead(const std::vector<Sample>& samples, Outcome& out) {
  out.add("trace.overhead_pct",
          (median_of(samples, &Sample::cpu_us_per_frame, true) /
               median_of(samples, &Sample::cpu_us_per_frame, false) -
           1.0) *
              100.0,
          "%");
}

// ---- configurations ----------------------------------------------------

core::DecoderConfig mix_decoder() {
  // bench/stream_service's decoder: the mix every serving bench shares.
  core::DecoderConfig cfg;
  cfg.kernel = core::CnuKernel::kMinSum;
  cfg.max_iterations = 10;
  cfg.early_termination = {.enabled = true, .threshold_raw = 8};
  return cfg;
}

core::DecoderConfig harq_decoder() {
  core::DecoderConfig cfg = mix_decoder();
  cfg.stop_on_codeword = true;
  return cfg;
}

core::DecoderConfig storage_decoder() {
  core::DecoderConfig cfg = harq_decoder();
  cfg.frame_crc = core::FrameCrc::kCrc16;
  cfg.crc_flip_budget = 4;
  return cfg;
}

stream::ServiceConfig service_config(const core::DecoderConfig& decoder,
                                     int workers) {
  stream::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.admission = stream::Admission::kBlock;
  cfg.decoder = decoder;
  return cfg;
}

}  // namespace perfbench
