// Per-layer probes of a traced run: each times one public call in
// isolation (engine decode, one-frame dispatch, row kernel, reconfigure,
// make_frame) so the traced run can attribute an end-to-end change to a
// layer.
#include <algorithm>
#include <cstdint>
#include <thread>

#include "common.hpp"
#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/core/kernels/minsum_kernels.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/stream/scheduler.hpp"
#include "ldpc/util/rng.hpp"

namespace perfbench {

namespace {

/// ns per call of the dispatched row kernel at lane type T: a degree-20
/// row over `lanes` frames (bench/kernel_microbench's BM_MinSumRowKernel*
/// shape), median of 5 timed batches.
template <class T>
double row_kernel_ns(int lanes) {
  namespace k = core::kernels;
  const auto fn = k::row_kernel<T>(lanes);
  constexpr int kDeg = 20;
  const std::int32_t app_hi =
      std::min<std::int32_t>(511, k::lane_raw_max(k::lane_type_of<T>));
  const k::RowBounds bounds{-app_hi, app_hi, -127, 127, 0, 0};
  const auto w = static_cast<std::size_t>(lanes);
  std::vector<std::vector<T>> l(kDeg, std::vector<T>(w));
  std::vector<T> lambda(kDeg * w, T{0}), full(kDeg * w), clip(kDeg * w);
  std::vector<T*> rows(kDeg);
  for (std::size_t e = 0; e < kDeg; ++e) {
    for (std::size_t j = 0; j < w; ++j)
      l[e][j] = static_cast<T>(
          static_cast<std::int32_t>((7 * e + 3 * j) % (2 * app_hi + 1)) -
          app_hi);
    rows[e] = l[e].data();
  }
  constexpr int kCalls = 20000;
  std::vector<double> ns;
  long long sink = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const long long t0 = now_ns();
    for (int c = 0; c < kCalls; ++c) {
      fn(rows.data(), lambda.data(), full.data(), clip.data(), kDeg, bounds);
      sink += lambda[static_cast<std::size_t>(c) % lambda.size()];
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  // Keeps the calls observable.
  if (sink == 0x7fffffffffffffffLL) ns.push_back(0.0);
  return median(ns);
}

}  // namespace

void probe_core(const MixPool& pool, Tracer& tracer, Outcome& out) {
  const core::DecoderConfig decoder = mix_decoder();
  const stream::TrafficSource source = make_mix_source(1);  // code table
  core::StreamBatchEngine engine(decoder);
  const int nmodes = source.mode_count();

  for (int m = 0; m < nmodes; ++m)
    out.add(std::string("core.engine_us_per_frame.") + kMixModeNames[m],
            pool.engine_us_per_frame[static_cast<std::size_t>(m)], "us");

  // One-frame dispatch: what a shallow bin pays for a full-width pass.
  for (int m = 0; m < nmodes; ++m) {
    engine.reconfigure(source.code(m));
    std::vector<double> us;
    for (const PoolFrame& f : pool.frames) {
      if (f.mode != m) continue;
      const core::QuantisedFrame* frames[1] = {&f.q};
      std::vector<core::FixedDecodeResult> results(1);
      Tracer::Scope span(tracer, "core.single_frame", "core", m);
      const long long t0 = now_ns();
      engine.decode_quantised(frames, pool.orders[static_cast<std::size_t>(m)],
                              results);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      ++out.attempted;
      out.failed += stream::fnv1a(results[0].bits) != f.ref.hash ||
                    results[0].iterations != f.ref.iterations;
      if (us.size() >= 64) break;
    }
    out.add(std::string("core.single_frame_us.") + kMixModeNames[m],
            median(us), "us");
  }

  double kernel_ns = 0.0;
  switch (engine.lane_type()) {
    case core::kernels::LaneType::kInt32:
      kernel_ns = row_kernel_ns<std::int32_t>(engine.lanes());
      break;
    case core::kernels::LaneType::kInt16:
      kernel_ns = row_kernel_ns<std::int16_t>(engine.lanes());
      break;
    case core::kernels::LaneType::kInt8:
      kernel_ns = row_kernel_ns<std::int8_t>(engine.lanes());
      break;
  }
  out.add("core.kernel_row_ns", kernel_ns, "ns");

  std::vector<double> reconfig_us;
  for (int k = 0; k < 20 * nmodes; ++k) {
    Tracer::Scope span(tracer, "core.reconfigure", "core", k % nmodes);
    const long long t0 = now_ns();
    engine.reconfigure(source.code(k % nmodes));
    reconfig_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.add("core.reconfigure_us", median(reconfig_us), "us");
  out.add("core.mean_iterations", pool.mean_iterations, "iterations");
}

SynthCost probe_synth(std::uint64_t seed, Tracer& tracer, Outcome& out) {
  constexpr int kSessions = 96;
  SynthCost cost;
  for (const bool storage : {false, true}) {
    // A second source: the timed run's own sources are untouched.
    const std::uint64_t probe_seed = util::substream_seed(seed, 0x5e1f);
    const stream::TrafficSource source = storage
                                             ? make_storage_source(probe_seed)
                                             : make_harq_source(probe_seed);
    for (int r = 0; r < 4; ++r) {
      std::vector<double> us;
      for (int s = 0; s < kSessions; ++s) {
        stream::Job job;
        job.id = s;
        job.session = s;
        job.round = r;
        Tracer::Scope span(tracer, "stream.make_frame", "stream", s, r);
        const long long t0 = now_ns();
        const stream::JobFrame frame = source.make_frame(job);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      const double value = median(us);
      (storage ? cost.storage_us : cost.harq_us)[static_cast<std::size_t>(r)] =
          value;
      out.add((storage ? "storage.synth_us.r" : "stream.synth_us.r") +
                  std::to_string(r),
              value, "us");
    }
  }
  return cost;
}

double probe_timer_late_p99_ms() {
  std::vector<double> late_ms;
  for (int k = 0; k < 400; ++k) {
    const long long at = now_ns() + 250'000;
    std::this_thread::sleep_until(at_ns(at));
    late_ms.push_back(static_cast<double>(now_ns() - at) / 1e6);
  }
  return percentile(late_ms, 99);
}

long long check_pool_against_model(std::uint64_t seed, const MixPool& pool,
                                   int frames) {
  stream::TrafficSource source = make_mix_source(seed);
  stream::SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.policy = stream::Policy::kFifo;
  cfg.decoder = mix_decoder();
  const stream::StreamReport report = stream::StreamScheduler(source, cfg).run(
      std::min<long long>(frames, static_cast<long long>(pool.frames.size())));
  long long mismatches = 0;
  for (const stream::StreamJob& job : report.jobs) {
    const RefResult& ref = pool.frames[static_cast<std::size_t>(job.id)].ref;
    mismatches += job.decision_hash != ref.hash ||
                  job.iterations != ref.iterations ||
                  job.converged != ref.converged;
  }
  return mismatches;
}

}  // namespace perfbench
