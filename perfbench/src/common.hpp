// Shared vocabulary of the decoder-farm benchmark: options, the metric
// record, clocks and statistics helpers, the in-memory span tracer, and
// the workload entry points (mix.cpp, closed_loop.cpp, probes.cpp).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ldpc/core/datapath.hpp"
#include "ldpc/core/quantised_frame.hpp"
#include "ldpc/stream/decode_service.hpp"
#include "ldpc/stream/stream_types.hpp"

namespace perfbench {

using namespace ldpc;

// ---- options and results ------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reference entries to corrupt on purpose (smoke test of the checker):
  /// every job decoded from a corrupted entry must count as failed.
  int inject_mismatch = 0;
  /// Frames in the frozen mix pool.
  int pool = 4096;
  /// Minimum number of set-up repetitions; setup_s is their median.
  int setup_reps = 15;
  /// Chrome trace-event JSON written at the end of a traced run.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  /// False when the run's own health check failed (e.g. the paced
  /// generator's backlog grew): the run is reported, not scored.
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> metrics;
  /// Human-readable lines printed to stderr (p99 with its sample count,
  /// generator health, layer-separation checks).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

// ---- clocks and statistics ----------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the benchmark process started.
long long now_ns();
/// The steady-clock time point of a now_ns() reading.
Clock::time_point at_ns(long long ns);
/// CPU seconds consumed by every thread of the process so far.
double process_cpu_s();

double median(std::vector<double> v);
/// Nearest-rank percentile, 0 < p <= 100 (0 for an empty sample).
double percentile(std::vector<double> v, double p);
/// "p99 12.3 ms (n=3000, 30 beyond)": the tail figure with its support.
std::string tail_note(const std::string& label, const std::vector<double>& ms,
                      double p);

// ---- tracing ------------------------------------------------------------

/// In-memory span recorder, written out as Chrome trace-event JSON at the
/// end of a traced run. Spans are kept up to a cap (later ones are only
/// counted) so a long run cannot exhaust memory; metrics never read the
/// spans back, they are computed from the same measurements directly.
class Tracer {
 public:
  struct Span {
    std::string name;
    const char* cat = "";
    int tid = 0;
    long long start_ns = 0;
    long long end_ns = 0;
    long long id = -1;      // request identity (job id / session)
    long long parent = -1;  // causing span's id (-1 = none)
  };

  explicit Tracer(bool enabled, std::size_t cap = 150'000)
      : enabled_(enabled), cap_(cap) {}

  bool enabled() const noexcept { return enabled_; }
  void add(Span span);
  /// Spans kept / dropped past the cap.
  std::size_t size() const;
  long long dropped() const;
  /// Writes {"traceEvents": [...]} (complete events, microseconds).
  void write_chrome_json(const std::string& path) const;

  /// Records [construction, destruction) as one span when enabled.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, const char* cat,
          long long id = -1, long long parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Span span_;
  };

 private:
  bool enabled_;
  std::size_t cap_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  long long dropped_ = 0;
};

/// Per-job queue-wait and decode spans from a service report's
/// timelines (service clock shifted by `service_epoch_ns`, the now_ns()
/// reading taken just before the service was constructed).
void trace_report(Tracer& tracer, const stream::StreamReport& report,
                  long long service_epoch_ns);

// ---- serving-layer attribution from report timelines ---------------------

/// Accumulates the `stream.*` per-layer figures over one or more service
/// reports: queue wait (submit -> bin start), bin service (start ->
/// finish; the jobs of one bin share both stamps on one worker), bin
/// depth, busy share, reconfigurations and steals.
struct StreamLayerAcc {
  std::vector<double> queue_wait_ms;
  std::vector<double> bin_service_ms;
  long long jobs = 0;
  long long bins = 0;
  long long reconfigs = 0;
  long long steals = 0;
  double busy_ns = 0.0;
  double capacity_ns = 0.0;  // workers x wall time

  void add(const stream::StreamReport& report, int workers);
  void emit(Outcome& out, int engine_lanes) const;
};

// ---- end-to-end figures -------------------------------------------------

/// End-to-end figures of one epoch (mixes) or chunk (closed loops).
struct Sample {
  bool traced = false;
  double fps = 0.0;
  double info_mbps = 0.0;
  double cpu_us_per_frame = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
};

/// Adds every end-to-end metric but setup_s (medians over the untraced
/// samples, then peak RSS) and notes the within-run spread; `what` names
/// one sample ("epochs of 3000 jobs").
void emit_end_to_end(const std::vector<Sample>& samples,
                     const std::string& what, Outcome& out);
/// trace.overhead_pct: CPU per frame of the traced samples against the
/// untraced ones.
void emit_trace_overhead(const std::vector<Sample>& samples, Outcome& out);

// ---- decoder configurations (one per workload family) --------------------

core::DecoderConfig mix_decoder();
core::DecoderConfig harq_decoder();
core::DecoderConfig storage_decoder();

/// Service configuration shared by every workload: `workers` decode
/// threads (with the generator/driver thread at most 3 of a 4-vCPU
/// host), kBlock admission, binned dispatch, a 256-slot queue deep enough
/// for full-lane bins of every mode.
stream::ServiceConfig service_config(const core::DecoderConfig& decoder,
                                     int workers);
/// Decode workers of the mixes.
constexpr int kWorkers = 2;
/// Decode workers of harq_closed_loop. One worker fills its bins while
/// the driver synthesises; a second one spends ~1.4 extra cores on
/// near-empty full-width passes, and with that the loop's latency
/// tripled whenever two other busy threads shared the host.
constexpr int kHarqWorkers = 1;
/// Set-up repetitions before the first timed request; one more follows
/// every epoch/chunk, and the run tops up to Options::setup_reps.
constexpr int kSetupRepsBeforeRun = 3;

/// Single-thread reference decode identity of one frame.
struct RefResult {
  std::uint64_t hash = 0;
  int iterations = 0;
  bool converged = false;
  bool crc_ok = true;
  bool crc_repaired = false;
};

// ---- the frozen mix pool (mix.cpp) ---------------------------------------

struct PoolFrame {
  int mode = 0;
  core::QuantisedFrame q;
  RefResult ref;
};

struct MixPool {
  std::vector<PoolFrame> frames;
  std::vector<std::vector<int>> orders;   // chip layer order per mode
  std::vector<double> engine_us_per_frame;  // per mode, median of passes
  double mean_iterations = 0.0;
  int engine_lanes = 0;
};

/// Mode names of the mix, in registration order.
extern const char* const kMixModeNames[3];

/// Generates `size` frames of the stream_service mix from `seed` and
/// decodes each once on a single-thread StreamBatchEngine under
/// chip_layer_order (full-lane batches per mode): the reference every
/// served job is checked against. `passes` > 1 repeats the reference
/// decode to time core.engine_us_per_frame (results must repeat).
MixPool build_mix_pool(std::uint64_t seed, int size, int passes,
                       Tracer& tracer);

// ---- workloads -----------------------------------------------------------

Outcome run_mix(const Options& opt, bool paced, Tracer& tracer);
Outcome run_harq_loop(const Options& opt, Tracer& tracer);

// ---- per-layer probes (probes.cpp; traced runs) ----------------------------

/// Engine, kernel, reconfiguration and single-frame probes over `pool`.
void probe_core(const MixPool& pool, Tracer& tracer, Outcome& out);
/// make_frame cost per HARQ round / storage rung on a second source.
struct SynthCost {
  std::array<double, 4> harq_us{};
  std::array<double, 4> storage_us{};
};
SynthCost probe_synth(std::uint64_t seed, Tracer& tracer, Outcome& out);
/// sleep_until lateness of the host (gen.late_p99_ms outside mix_paced).
double probe_timer_late_p99_ms();
/// The modeled StreamScheduler on the pool's leading frames: the
/// single-thread reference must match the chip model. Returns mismatches.
long long check_pool_against_model(std::uint64_t seed, const MixPool& pool,
                                   int frames);

/// Closed-loop accounting of the leading sessions, from run_*_modeled.
struct LeadingLoop {
  stream::StreamReport report;
  long long delivered = 0;
  long long bit_errors = 0;
  long long repaired = 0;
  double mean_iterations = 0.0;
};
LeadingLoop run_leading_modeled(std::uint64_t seed, bool storage,
                                long long sessions);
/// harq.* / storage.* exact counts from the leading-session runs.
void emit_loop_counts(const LeadingLoop& harq, const LeadingLoop& storage,
                      Outcome& out);

/// Source seed of closed-loop chunk `chunk` of a run seeded `seed`.
std::uint64_t loop_seed(std::uint64_t seed, long long chunk);
/// The workloads' traffic sources (quantised emission on).
stream::TrafficSource make_harq_source(std::uint64_t seed);
stream::TrafficSource make_storage_source(std::uint64_t seed);
stream::TrafficSource make_mix_source(std::uint64_t seed);

}  // namespace perfbench
