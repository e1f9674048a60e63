// The closed-loop HARQ workload (stream::run_harq_live), plus the
// modeled HARQ and NAND read-retry loops whose exact counts the traced
// runs report.
//
// The run is a sequence of chunks. Chunk c runs a fixed number of
// sessions from its own counter-seeded source through the live driver,
// which stands up and finishes its own DecodeService. Every job of a
// chunk is then checked, outside the timed window, against a re-synthesis
// of its (session, round) frame decoded by a single-thread engine under
// chip_layer_order, and the leading sessions of chunk 0 against
// run_harq_modeled. End-to-end figures are medians over the untraced
// chunks.
#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "common.hpp"
#include "ldpc/arch/decoder_chip.hpp"
#include "ldpc/codes/registry.hpp"
#include "ldpc/core/stream_batch_engine.hpp"
#include "ldpc/storage/storage_stream.hpp"
#include "ldpc/stream/harq_stream.hpp"
#include "ldpc/util/rng.hpp"

namespace perfbench {

namespace {

/// HARQ sessions (transport blocks) per chunk.
constexpr long long kChunkSessions = 2048;
/// Leading sessions of chunk 0 re-run through the modeled farm.
constexpr long long kLeadingSessions = 128;
constexpr int kHarqRounds = 4;

storage::NandLadderConfig bench_ladder() {
  // bench/storage_read_path's operating point: a programming spread noisy
  // enough that a healthy share of frames outlives the hard read.
  storage::NandLadderConfig cfg = storage::default_ladder();
  cfg.program_sigma = 0.65;
  return cfg;
}

using RoundKey = std::pair<long long, int>;  // (session, round)
/// Decision hash, iterations, converged, CRC verdict, CRC repair and
/// residual payload bit errors (the UBER numerator).
using RoundResult = std::tuple<std::uint64_t, int, bool, bool, bool, int>;

RoundResult result_of(const stream::StreamJob& job) {
  return {job.decision_hash, job.iterations,   job.converged,
          job.crc_ok,        job.crc_repaired, job.payload_bit_errors};
}

/// Re-synthesises every record's (session, round) frame on a private
/// source and decodes it on a single-thread engine; returns mismatches.
/// The first `inject` records are compared against a corrupted hash.
long long verify_records(std::uint64_t seed,
                         const std::vector<stream::StreamJob>& jobs,
                         long long inject) {
  const core::DecoderConfig decoder = harq_decoder();
  constexpr int kThreads = 3;  // the service's workers have been joined
  std::array<long long, kThreads> failed{};
  auto work = [&](int t) {
    const stream::TrafficSource source = make_harq_source(seed);
    const codes::QCCode& code = source.code(0);
    const auto payload = static_cast<std::size_t>(code.payload_bits());
    const std::vector<int> order = arch::chip_layer_order(
        code, decoder, arch::ChipDimensions::universal());
    core::StreamBatchEngine engine(decoder);
    engine.reconfigure(code);
    const auto lanes = static_cast<std::size_t>(engine.lanes());
    std::vector<std::size_t> mine;
    for (std::size_t i = static_cast<std::size_t>(t); i < jobs.size();
         i += kThreads)
      mine.push_back(i);
    for (std::size_t at = 0; at < mine.size(); at += lanes) {
      const std::size_t count = std::min(lanes, mine.size() - at);
      std::vector<core::QuantisedFrame> frames(count);
      std::vector<std::vector<std::uint8_t>> codewords(count);
      std::vector<const core::QuantisedFrame*> ptrs(count);
      for (std::size_t k = 0; k < count; ++k) {
        const stream::StreamJob& rec = jobs[mine[at + k]];
        stream::Job job;
        job.id = rec.id;
        job.mode = rec.mode;
        job.session = rec.session;
        job.round = rec.round;
        job.rv = rec.rv;
        stream::JobFrame frame = source.make_frame(job);
        frames[k] = std::move(frame.quantised);
        codewords[k] = std::move(frame.codeword);
        ptrs[k] = &frames[k];
      }
      std::vector<core::FixedDecodeResult> results(count);
      engine.decode_quantised(ptrs, order, results);
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = mine[at + k];
        std::uint64_t hash = stream::fnv1a(results[k].bits);
        if (static_cast<long long>(i) < inject) hash ^= 1;
        int bit_errors = 0;
        for (std::size_t v = 0; v < payload; ++v)
          bit_errors += results[k].bits[v] != codewords[k][v];
        const RoundResult want{hash,
                               results[k].iterations,
                               results[k].converged,
                               results[k].crc_ok,
                               results[k].crc_repaired,
                               bit_errors};
        failed[static_cast<std::size_t>(t)] += result_of(jobs[i]) != want;
      }
    }
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < kThreads; ++t) helpers.emplace_back(work, t);
  work(0);
  for (auto& h : helpers) h.join();
  long long total = 0;
  for (const long long f : failed) total += f;
  return total;
}

}  // namespace

std::uint64_t loop_seed(std::uint64_t seed, long long chunk) {
  return util::substream_seed(seed, 0x100000ULL +
                                        static_cast<std::uint64_t>(chunk));
}

stream::TrafficSource make_harq_source(std::uint64_t seed) {
  // bench/harq_link's fading link: NR BG2 z=36 E=1500, block Rayleigh.
  stream::TrafficSource source({.seed = seed});
  source.add_mode(codes::make_nr_code(codes::Rate::kR15, 36, 1500, 40), 2.0,
                  1.0, channel::ChannelKind::kRayleighBlock, 0);
  source.emit_quantised(harq_decoder());
  return source;
}

stream::TrafficSource make_storage_source(std::uint64_t seed) {
  // bench/storage_read_path's page: WiMax r1/2 z=24 with a CRC-16 tail.
  stream::TrafficSource source({.seed = seed});
  source.add_custom_mode(
      codes::make_code({codes::Standard::kWimax80216e, codes::Rate::kR12, 24}),
      1.0, storage::NandReadLadder(bench_ladder()).synth(),
      core::FrameCrc::kCrc16);
  source.emit_quantised(storage_decoder());
  return source;
}

LeadingLoop run_leading_modeled(std::uint64_t seed, bool storage,
                                long long sessions) {
  stream::TrafficSource source =
      storage ? make_storage_source(seed) : make_harq_source(seed);
  stream::SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.policy = stream::Policy::kBinned;
  cfg.max_burst = 4;
  cfg.decoder = storage ? storage_decoder() : harq_decoder();
  LeadingLoop out;
  if (storage) {
    storage::StorageStreamConfig scfg;
    scfg.ladder = bench_ladder();
    const storage::StorageRunResult run =
        storage::run_storage_modeled(source, cfg, sessions, scfg);
    out.report = run.report;
    out.delivered = run.ledger.delivered;
    out.bit_errors = run.ledger.bit_errors;
    out.repaired = run.ledger.repaired;
  } else {
    out.report = stream::run_harq_modeled(source, cfg, sessions,
                                          {.max_rounds = kHarqRounds});
    out.delivered = out.report.harq.delivered;
  }
  long long iterations = 0;
  for (const stream::StreamJob& job : out.report.jobs)
    iterations += job.iterations;
  out.mean_iterations =
      static_cast<double>(iterations) /
      static_cast<double>(std::max<std::size_t>(out.report.jobs.size(), 1));
  return out;
}

void emit_loop_counts(const LeadingLoop& harq, const LeadingLoop& storage,
                      Outcome& out) {
  const stream::HarqStreamStats& h = harq.report.harq;
  for (int r = 0; r < kHarqRounds; ++r)
    out.add("harq.ack_rate.r" + std::to_string(r),
            r < static_cast<int>(h.rounds.size())
                ? h.rounds[static_cast<std::size_t>(r)].ack_rate()
                : 0.0,
            "share");
  out.add("harq.residual_fer", h.residual_fer(), "share");
  const stream::HarqStreamStats& s = storage.report.harq;
  out.add("storage.mean_rungs",
          static_cast<double>(storage.report.jobs.size()) /
              static_cast<double>(std::max<long long>(s.sessions, 1)),
          "rungs");
  out.add("storage.repaired_share",
          static_cast<double>(storage.repaired) /
              static_cast<double>(std::max<long long>(storage.delivered, 1)),
          "share");
}

Outcome run_harq_loop(const Options& opt, Tracer& tracer) {
  Outcome out;
  const core::DecoderConfig decoder = harq_decoder();
  const stream::ServiceConfig cfg = service_config(decoder, kHarqWorkers);
  const arch::ChipDimensions dims = arch::ChipDimensions::universal();

  // ---- warm-up bin: pre-synthesised round-0 frames and their reference ----
  std::vector<stream::Job> warm_jobs;
  std::vector<core::QuantisedFrame> warm_frames;
  std::vector<RefResult> warm_ref;
  {
    stream::TrafficSource source = make_harq_source(loop_seed(opt.seed, 0));
    core::StreamBatchEngine engine(decoder);
    engine.reconfigure(source.code(0));
    for (int k = 0; k < engine.lanes(); ++k) {
      warm_jobs.push_back(source.next());
      warm_frames.push_back(source.make_frame(warm_jobs.back()).quantised);
    }
    std::vector<const core::QuantisedFrame*> ptrs;
    for (const auto& f : warm_frames) ptrs.push_back(&f);
    std::vector<core::FixedDecodeResult> results(ptrs.size());
    engine.decode_quantised(
        ptrs, arch::chip_layer_order(source.code(0), decoder, dims), results);
    for (const auto& r : results)
      warm_ref.push_back({stream::fnv1a(r.bits), r.iterations, r.converged,
                          r.crc_ok, r.crc_repaired});
  }

  // ---- set-up: everything before the first timed request, repeated --------
  // One set-up repetition. A few run before the first timed request; the
  // rest are spread between chunks, so the median samples the host over
  // the whole run rather than one instant.
  std::vector<double> setup_s, order_ms, construct_ms;
  double warm_submit_ms = 0.0, setup_total_s = 0.0;
  auto setup_rep = [&] {
    const auto rep = static_cast<long long>(setup_s.size());
    Tracer::Scope rep_span(tracer, "setup", "setup", rep);
    const long long t0 = now_ns();
    std::optional<stream::TrafficSource> source;
    {
      Tracer::Scope span(tracer, "setup.source", "setup", rep);
      source.emplace(make_harq_source(loop_seed(opt.seed, 0)));
    }
    const long long o0 = now_ns();
    {
      Tracer::Scope span(tracer, "arch.chip_layer_order", "arch", 0);
      (void)arch::chip_layer_order(source->code(0), decoder, dims);
    }
    order_ms.push_back(static_cast<double>(now_ns() - o0) / 1e6);
    const long long c0 = now_ns();
    std::optional<stream::DecodeService> service;
    {
      Tracer::Scope span(tracer, "stream.service_construct", "stream", rep);
      service.emplace(*source, cfg);
    }
    construct_ms.push_back(static_cast<double>(now_ns() - c0) / 1e6);
    const long long w0 = now_ns();
    for (std::size_t k = 0; k < warm_jobs.size(); ++k) {
      Tracer::Scope span(tracer, "stream.submit", "stream",
                         static_cast<long long>(k));
      stream::ServiceRequest req;
      req.id = static_cast<long long>(k);
      req.mode = warm_jobs[k].mode;
      req.quantised = warm_frames[k];
      service->submit(std::move(req));
    }
    warm_submit_ms += static_cast<double>(now_ns() - w0) / 1e6;
    const stream::StreamReport report = service->finish();
    service.reset();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
    for (const stream::StreamJob& job : report.jobs) {
      const RefResult& ref = warm_ref[static_cast<std::size_t>(job.id)];
      out.failed += job.decision_hash != ref.hash ||
                    job.iterations != ref.iterations ||
                    job.converged != ref.converged ||
                    job.crc_ok != ref.crc_ok ||
                    job.crc_repaired != ref.crc_repaired;
    }
    out.attempted += static_cast<long long>(warm_jobs.size());
    out.failed +=
        static_cast<long long>(warm_jobs.size() - report.jobs.size());
  };
  for (int rep = 0; rep < kSetupRepsBeforeRun; ++rep) setup_rep();

  // ---- timed chunks -------------------------------------------------------
  std::vector<Sample> chunks;
  StreamLayerAcc layer;
  std::vector<double> latency_ms;  // untraced chunks, for the p99 note
  // Untraced chunks' attempts per round and wall time: the make_frame
  // coverage check of the traced run.
  std::array<long long, kHarqRounds> round_attempts{};
  double untraced_wall_s = 0.0;
  std::map<RoundKey, RoundResult> leading_live;
  int untraced = 0, traced = 0;
  const long long deadline =
      now_ns() + static_cast<long long>(opt.seconds * 1e9);
  for (long long c = 0; now_ns() < deadline || untraced < 3 ||
                        (opt.trace && traced < 2);
       ++c) {
    Sample ch;
    ch.traced = opt.trace && c % 2 == 1;
    const std::uint64_t seed = loop_seed(opt.seed, c);
    stream::TrafficSource source = make_harq_source(seed);

    const double cpu0 = process_cpu_s();
    const long long t0 = now_ns();
    const stream::StreamReport report = stream::run_harq_live(
        source, cfg, kChunkSessions, {.max_rounds = kHarqRounds});
    const long long t1 = now_ns();
    const double cpu1 = process_cpu_s();
    const long long payload_delivered = report.harq.payload_bits_delivered;

    const auto done = static_cast<long long>(report.jobs.size());
    const double wall_s = static_cast<double>(t1 - t0) / 1e9;
    ch.fps = static_cast<double>(done) / wall_s;
    ch.info_mbps = static_cast<double>(payload_delivered) / wall_s / 1e6;
    ch.cpu_us_per_frame =
        (cpu1 - cpu0) * 1e6 / static_cast<double>(std::max(done, 1LL));
    std::vector<double> lat;
    lat.reserve(report.jobs.size());
    for (const stream::StreamJob& job : report.jobs) {
      lat.push_back(static_cast<double>(job.wall_latency_ns()) / 1e6);
      if (!ch.traced && job.round < kHarqRounds)
        ++round_attempts[static_cast<std::size_t>(job.round)];
      if (c == 0 && job.session < kLeadingSessions)
        leading_live[{job.session, job.round}] = result_of(job);
    }
    ch.latency_p50_ms = percentile(lat, 50);
    ch.latency_p90_ms = percentile(lat, 90);

    {
      Tracer::Scope span(tracer, "verify.chunk", "verify", c);
      out.failed += verify_records(seed, report.jobs,
                                   c == 0 ? opt.inject_mismatch : 0);
    }
    out.attempted += done;
    if (ch.traced) {
      ++traced;
      layer.add(report, kHarqWorkers);
      trace_report(tracer, report, t0);
    } else {
      ++untraced;
      untraced_wall_s += wall_s;
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    }
    chunks.push_back(ch);
    setup_rep();
  }
  while (static_cast<int>(setup_s.size()) < opt.setup_reps) setup_rep();
  out.add("setup_s", median(setup_s), "s");

  // ---- leading sessions against the modeled farm -----------------------
  const LeadingLoop leading =
      run_leading_modeled(loop_seed(opt.seed, 0), false, kLeadingSessions);
  {
    std::map<RoundKey, RoundResult> modeled;
    for (const stream::StreamJob& job : leading.report.jobs)
      modeled[{job.session, job.round}] = result_of(job);
    long long mismatches = 0;
    for (const auto& [key, result] : modeled) {
      const auto it = leading_live.find(key);
      mismatches += it == leading_live.end() || it->second != result;
    }
    mismatches += leading_live.size() != modeled.size();
    // Delivered count and mean iterations are exact functions of the
    // (session, round) results above; a mismatch there shows up here.
    out.attempted += static_cast<long long>(modeled.size());
    out.failed += mismatches;
    out.note("leading " + std::to_string(kLeadingSessions) +
             " sessions vs run_harq_modeled: " + std::to_string(modeled.size()) + " attempts, " +
             std::to_string(leading.delivered) + " delivered, " +
             std::to_string(leading.bit_errors) + " residual bit errors, " +
             std::to_string(leading.mean_iterations) +
             " mean iterations, " + std::to_string(mismatches) +
             " mismatches");
  }

  emit_end_to_end(
      chunks, "chunks of " + std::to_string(kChunkSessions) + " sessions",
      out);
  out.note(tail_note("latency from submit", latency_ms, 99));

  if (opt.trace) {
    layer.emit(out, cfg.lanes > 0 ? cfg.lanes
                                  : core::StreamBatchEngine(decoder).lanes());
    // The drivers submit from inside run_*_live; the bench's own submit()
    // calls are the set-up's warm-up bins.
    out.add("stream.submit_blocked_ms", warm_submit_ms / setup_total_s,
            "ms/s");
    out.add("stream.service_construct_ms", median(construct_ms), "ms");
    out.add("arch.layer_order_ms", median(order_ms), "ms");
    out.add("gen.late_p99_ms", probe_timer_late_p99_ms(), "ms");
    emit_trace_overhead(chunks, out);
    {
      const MixPool pool = build_mix_pool(opt.seed, opt.pool, 3, tracer);
      probe_core(pool, tracer, out);
      out.failed += check_pool_against_model(opt.seed, pool, 64);
      out.attempted += std::min(64, opt.pool);
    }
    const SynthCost synth = probe_synth(opt.seed, tracer, out);
    emit_loop_counts(leading,
                     run_leading_modeled(loop_seed(opt.seed, 0), true,
                                         kLeadingSessions),
                     out);

    // Layer separation: the driver's synthesis against the wall time.
    double synth_s = 0.0;
    for (std::size_t r = 0; r < round_attempts.size(); ++r)
      synth_s += static_cast<double>(round_attempts[r]) * synth.harq_us[r] /
                 1e6;
    out.note(std::string("layer separation: make_frame covers ") +
             std::to_string(100.0 * synth_s / untraced_wall_s) +
             "% of the wall time (designed >= 70%)");
  }
  return out;
}

}  // namespace perfbench
