// Mixed-standard workloads over stream::DecodeService: a frozen pool of
// pre-quantised WiMax / NR / WLAN frames replayed either as fast as kBlock
// admission allows (mix_saturated) or as an open loop with Poisson
// arrivals at a fixed rate (mix_paced).
//
// The run is split into epochs. Each epoch stands up a fresh service,
// pushes a fixed number of jobs through it and finish()es it, so the
// per-job records the service keeps until finish() stay bounded and the
// peak RSS does not depend on how fast the host happened to be. Every
// end-to-end figure is the median over the untraced epochs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/util/rng.hpp"

namespace perfbench {

const char* const kMixModeNames[3] = {"wimax", "nr", "wlan"};

namespace {

/// mix_paced arrival rate, frames per second. Nearly every frame is a bin
/// of its own, so the latency percentiles read single-frame dispatch
/// cost: WiMax/WLAN frames (60% of the mix) below the median, NR frames
/// (~1.6 ms alone) at p90. At 3000/s the two workers ran ~90% busy, the
/// percentiles were mostly queueing, and they rose by a third when two
/// other busy threads shared the host; at 500/s they rose by 0-4%.
constexpr double kPacedRate = 500.0;
/// A paced epoch is one second of arrivals.
constexpr long long kPacedEpochJobs = 500;
/// Frames still queued when a paced epoch's schedule ends beyond which
/// the backlog is growing (~0.5 s of arrivals; a healthy run ends its
/// schedule with a bin or two in flight).
constexpr long long kBacklogLimit = 256;

bool matches(const stream::StreamJob& job, const RefResult& ref) {
  return job.decision_hash == ref.hash && job.iterations == ref.iterations &&
         job.converged == ref.converged;
}

}  // namespace

stream::TrafficSource make_mix_source(std::uint64_t seed) {
  // bench/stream_service's three-standard mix (weights 2:2:1).
  stream::TrafficSource source(
      {.seed = seed, .mean_interarrival_cycles = 300.0});
  source.add_mode(
      codes::make_code({codes::Standard::kWimax80216e, codes::Rate::kR12, 96}),
      3.0, 2.0);
  source.add_mode(codes::make_nr_code(codes::Rate::kR13, 96, 5000, 64), 3.0,
                  2.0);
  source.add_mode(
      codes::make_code({codes::Standard::kWlan80211n, codes::Rate::kR34, 81}),
      4.5, 1.0);
  source.emit_quantised(mix_decoder());
  return source;
}

MixPool build_mix_pool(std::uint64_t seed, int size, int passes,
                       Tracer& tracer) {
  if (size <= 0) throw std::invalid_argument("pool size must be positive");
  MixPool pool;
  stream::TrafficSource source = make_mix_source(seed);
  pool.frames.resize(static_cast<std::size_t>(size));
  for (PoolFrame& f : pool.frames) {
    const stream::Job job = source.next();
    f.mode = job.mode;
    f.q = source.make_frame(job).quantised;
  }

  const core::DecoderConfig decoder = mix_decoder();
  const arch::ChipDimensions dims = arch::ChipDimensions::universal();
  core::StreamBatchEngine engine(decoder);
  pool.engine_lanes = engine.lanes();
  const auto lanes = static_cast<std::size_t>(engine.lanes());
  long long iterations = 0;
  for (int m = 0; m < source.mode_count(); ++m) {
    pool.orders.push_back(arch::chip_layer_order(source.code(m), decoder,
                                                 dims));
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < pool.frames.size(); ++i)
      if (pool.frames[i].mode == m) idx.push_back(i);
    engine.reconfigure(source.code(m));

    std::vector<double> pass_us;
    for (int pass = 0; pass < passes && !idx.empty(); ++pass) {
      Tracer::Scope span(tracer,
                         std::string("core.engine_pass.") + kMixModeNames[m],
                         "core");
      const long long t0 = now_ns();
      for (std::size_t at = 0; at < idx.size(); at += lanes) {
        const std::size_t count = std::min(lanes, idx.size() - at);
        std::vector<const core::QuantisedFrame*> frames(count);
        for (std::size_t k = 0; k < count; ++k)
          frames[k] = &pool.frames[idx[at + k]].q;
        std::vector<core::FixedDecodeResult> results(count);
        engine.decode_quantised(frames, pool.orders.back(), results);
        for (std::size_t k = 0; k < count; ++k) {
          RefResult& ref = pool.frames[idx[at + k]].ref;
          const RefResult got{stream::fnv1a(results[k].bits),
                              results[k].iterations, results[k].converged};
          if (pass == 0) {
            ref = got;
            iterations += got.iterations;
          } else if (got.hash != ref.hash ||
                     got.iterations != ref.iterations) {
            throw std::runtime_error(
                "the single-thread reference decode did not repeat");
          }
        }
      }
      pass_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                        static_cast<double>(idx.size()));
    }
    pool.engine_us_per_frame.push_back(median(pass_us));
  }
  pool.mean_iterations =
      static_cast<double>(iterations) / static_cast<double>(size);
  return pool;
}

Outcome run_mix(const Options& opt, bool paced, Tracer& tracer) {
  Outcome out;
  MixPool pool = build_mix_pool(opt.seed, opt.pool, opt.trace ? 3 : 1,
                                tracer);
  const auto pool_size = static_cast<long long>(pool.frames.size());
  for (int k = 0; k < opt.inject_mismatch && k < pool_size; ++k)
    pool.frames[static_cast<std::size_t>(k)].ref.hash ^= 1;
  const int nmodes = static_cast<int>(pool.orders.size());

  const core::DecoderConfig decoder = mix_decoder();
  const stream::ServiceConfig base_cfg = service_config(decoder, kWorkers);
  const arch::ChipDimensions dims = arch::ChipDimensions::universal();

  auto pool_request = [&](long long id, std::size_t index) {
    stream::ServiceRequest req;
    req.id = id;
    req.mode = pool.frames[index].mode;
    req.quantised = pool.frames[index].q;
    return req;
  };

  // ---- set-up: everything before the first timed request, repeated --------
  // Warm-up bins: the first engine_lanes pool frames of every mode.
  std::vector<std::size_t> warm;
  for (int m = 0; m < nmodes; ++m) {
    int taken = 0;
    for (std::size_t i = 0; i < pool.frames.size() && taken < pool.engine_lanes;
         ++i)
      if (pool.frames[i].mode == m) {
        warm.push_back(i);
        ++taken;
      }
  }
  // One set-up repetition. A few run before the first timed request; the
  // rest are spread between epochs, so the median samples the host over
  // the whole run rather than one instant.
  std::optional<stream::TrafficSource> source;  // last rep's, kept
  std::vector<double> setup_s, order_ms, construct_ms;
  auto setup_rep = [&] {
    const auto rep = static_cast<long long>(setup_s.size());
    Tracer::Scope rep_span(tracer, "setup", "setup", rep);
    const long long t0 = now_ns();
    source.reset();
    {
      Tracer::Scope span(tracer, "setup.source", "setup", rep);
      source.emplace(make_mix_source(opt.seed));
    }
    const long long o0 = now_ns();
    for (int m = 0; m < nmodes; ++m) {
      Tracer::Scope span(tracer, "arch.chip_layer_order", "arch", m);
      (void)arch::chip_layer_order(source->code(m), decoder, dims);
    }
    order_ms.push_back(static_cast<double>(now_ns() - o0) / 1e6 / nmodes);
    const long long c0 = now_ns();
    std::optional<stream::DecodeService> service;
    {
      Tracer::Scope span(tracer, "stream.service_construct", "stream", rep);
      service.emplace(*source, base_cfg);
    }
    construct_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
    for (std::size_t k = 0; k < warm.size(); ++k) {
      Tracer::Scope span(tracer, "stream.submit", "stream",
                         static_cast<long long>(k));
      service->submit(pool_request(static_cast<long long>(k), warm[k]));
    }
    const stream::StreamReport report = service->finish();
    service.reset();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    for (const stream::StreamJob& job : report.jobs)
      out.failed += !matches(
          job, pool.frames[warm[static_cast<std::size_t>(job.id)]].ref);
    out.attempted += static_cast<long long>(warm.size());
    out.failed += static_cast<long long>(warm.size() - report.jobs.size());
  };
  for (int rep = 0; rep < kSetupRepsBeforeRun; ++rep) setup_rep();

  // ---- timed epochs --------------------------------------------------------
  const long long epoch_jobs = paced ? kPacedEpochJobs : 2 * pool_size;
  std::vector<Sample> epochs;
  std::vector<double> submit_ms_per_s;  // traced epochs
  StreamLayerAcc layer;
  std::vector<double> latency_ms;  // untraced epochs, for the p99 note
  std::vector<double> late_ms;
  long long worst_backlog = 0;
  int untraced = 0, traced = 0;
  const long long deadline =
      now_ns() + static_cast<long long>(opt.seconds * 1e9);
  std::vector<long long> due(static_cast<std::size_t>(epoch_jobs), 0);
  std::vector<long long> lat_ns(static_cast<std::size_t>(epoch_jobs), 0);
  for (long long e = 0; now_ns() < deadline || untraced < 3 ||
                        (opt.trace && traced < 2);
       ++e) {
    Sample ep;
    ep.traced = opt.trace && e % 2 == 1;
    const long long base = e * epoch_jobs;  // global index of job 0
    if (paced) {
      util::Xoshiro256 rng(util::substream_seed(
          opt.seed, 0x70ace0000ULL + static_cast<std::uint64_t>(e)));
      double t = 0.0;
      for (long long& d : due) {
        d = static_cast<long long>(t);
        t += -std::log1p(-rng.uniform()) * 1e9 / kPacedRate;
      }
    }

    std::atomic<long long> completed{0};
    long long t_start = 0;  // published to the workers by the queue lock
    stream::ServiceConfig cfg = base_cfg;
    if (paced)
      cfg.on_complete = [&](const stream::StreamJob& job) {
        lat_ns[static_cast<std::size_t>(job.id)] =
            now_ns() - (t_start + due[static_cast<std::size_t>(job.id)]);
        completed.fetch_add(1, std::memory_order_relaxed);
      };
    const long long service_epoch = now_ns();
    std::optional<stream::DecodeService> service;
    service.emplace(*source, cfg);
    construct_ms.push_back(static_cast<double>(now_ns() - service_epoch) /
                           1e6);

    const double cpu0 = process_cpu_s();
    t_start = now_ns() + (paced ? 1'000'000 : 0);
    long long in_submit_ns = 0;
    for (long long k = 0; k < epoch_jobs; ++k) {
      if (paced) {
        const long long at = t_start + due[static_cast<std::size_t>(k)];
        if (now_ns() < at) std::this_thread::sleep_until(at_ns(at));
        late_ms.push_back(static_cast<double>(now_ns() - at) / 1e6);
      }
      stream::ServiceRequest req = pool_request(
          k, static_cast<std::size_t>((base + k) % pool_size));
      // A refused job is missing from the report and counted there.
      const long long s0 = now_ns();
      service->submit(std::move(req));
      const long long s1 = now_ns();
      in_submit_ns += s1 - s0;
      if (ep.traced) tracer.add({"stream.submit", "stream", 0, s0, s1, k, -1});
    }
    if (paced) {
      const long long backlog =
          epoch_jobs - completed.load(std::memory_order_relaxed);
      worst_backlog = std::max(worst_backlog, backlog);
      if (backlog > kBacklogLimit) {
        out.valid = false;
        out.invalid_reason = "generator backlog grew to " +
                             std::to_string(backlog) +
                             " frames by the end of an epoch's schedule";
      }
    }
    const stream::StreamReport report = service->finish();
    const double cpu1 = process_cpu_s();
    service.reset();

    const auto done = static_cast<long long>(report.jobs.size());
    out.attempted += epoch_jobs;
    out.failed += epoch_jobs - done;
    std::vector<double> lat;
    lat.reserve(report.jobs.size());
    for (const stream::StreamJob& job : report.jobs) {
      const auto index = static_cast<std::size_t>((base + job.id) % pool_size);
      out.failed += !matches(job, pool.frames[index].ref);
      lat.push_back(
          static_cast<double>(paced ? lat_ns[static_cast<std::size_t>(job.id)]
                                    : job.wall_latency_ns()) /
          1e6);
    }
    const double wall_s = static_cast<double>(report.wall_elapsed_ns) / 1e9;
    ep.fps = static_cast<double>(done) / wall_s;
    ep.info_mbps = static_cast<double>(report.total_payload_bits) / wall_s /
                   1e6;
    ep.cpu_us_per_frame =
        (cpu1 - cpu0) * 1e6 / static_cast<double>(std::max(done, 1LL));
    ep.latency_p50_ms = percentile(lat, 50);
    ep.latency_p90_ms = percentile(lat, 90);
    if (ep.traced) {
      ++traced;
      submit_ms_per_s.push_back(static_cast<double>(in_submit_ns) / 1e6 /
                                wall_s);
      layer.add(report, kWorkers);
      trace_report(tracer, report, service_epoch);
    } else {
      ++untraced;
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    }
    epochs.push_back(ep);
    setup_rep();
  }
  while (static_cast<int>(setup_s.size()) < opt.setup_reps) setup_rep();
  out.add("setup_s", median(setup_s), "s");

  emit_end_to_end(epochs,
                  "epochs of " + std::to_string(epoch_jobs) + " jobs", out);
  out.note(tail_note(paced ? "latency from due time" : "latency from submit",
                     latency_ms, 99));
  if (paced) {
    out.note(tail_note("generator lateness", late_ms, 50));
    out.note(tail_note("generator lateness", late_ms, 99));
    out.note("worst end-of-schedule backlog " + std::to_string(worst_backlog) +
             " frames (limit " + std::to_string(kBacklogLimit) + ")");
  }

  if (opt.trace) {
    layer.emit(out, pool.engine_lanes);
    out.add("stream.submit_blocked_ms", median(submit_ms_per_s), "ms/s");
    out.add("stream.service_construct_ms", median(construct_ms), "ms");
    out.add("arch.layer_order_ms", median(order_ms), "ms");
    out.add("gen.late_p99_ms",
            paced ? percentile(late_ms, 99) : probe_timer_late_p99_ms(), "ms");
    emit_trace_overhead(epochs, out);
    probe_core(pool, tracer, out);
    out.failed += check_pool_against_model(opt.seed, pool, 64);
    out.attempted += std::min<long long>(64, pool_size);
    probe_synth(opt.seed, tracer, out);
    emit_loop_counts(run_leading_modeled(loop_seed(opt.seed, 0), false, 128),
                     run_leading_modeled(loop_seed(opt.seed, 0), true, 128),
                     out);
    const double occupancy =
        layer.bins ? static_cast<double>(layer.jobs) /
                         static_cast<double>(layer.bins) / pool.engine_lanes
                   : 0.0;
    out.note(std::string("layer separation: lane occupancy ") +
             std::to_string(occupancy) +
             (paced ? " (designed <= 0.15)" : " (designed >= 0.9)"));
  }
  return out;
}

}  // namespace perfbench
