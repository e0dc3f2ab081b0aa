// write-dense: repeated compress() of a 256^3 float64 turbulence field.
//
// Exercises the compressor driver, interp + quant, bitplane, coding and
// archive assembly; never touches the reader, serve or net layers.  The
// field (128 MiB) plus the work copy and block outputs (~350 MB) is larger
// than the last-level cache, so memory traffic is part of what is measured.
#include <cstdio>

#include "core/compressor.hpp"
#include "core/progressive_reader.hpp"
#include "ladder.hpp"
#include "traced_compress.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

constexpr std::size_t kMinCalls = 3;

/// Oracle over the archive a run wrote: the read-progressive ladder on it,
/// checked step by step.  Returns the Fig. 6 fraction (cumulative bytes at
/// eb 1e-4*range over archive bytes).
double check_archive(const Bytes& archive, const NdArray<double>& field,
                     std::uint64_t seed, Report& r) {
  MemorySource src(archive);
  ProgressiveReader<double> reader(src);
  std::uint64_t sum_new = 0;
  double frac = 0.0;
  RetrievalStats last;
  for (const Step& step : local_ladder(field.dims(), field_range(field), seed)) {
    const StepResult res = run_step(reader, step, field, r, nullptr, 0);
    sum_new += res.stats.bytes_new;
    last = res.stats;
    if (step.label == "eb1e-4") {
      frac = static_cast<double>(res.stats.bytes_total) /
             static_cast<double>(archive.size());
    }
  }
  check_byte_sum(sum_new, last, r, "write-dense ladder");
  return frac;
}

}  // namespace

Report run_write_dense(const RunConfig& cfg) {
  Report r;
  const Dims dims{256, 256, 256};
  Options opt;
  opt.block_side = 64;
  opt.error_bound = 1e-6;  // relative to the data range

  NdArray<double> field;
  r.set("setup_s", median_setup([&] {
    field = NdArray<double>();
    field = make_field(Field::kDensity, dims, cfg.seed);
  }));
  const std::size_t field_bytes = field.count() * sizeof(double);

  // Untraced calls: the end-to-end figures, and the reference archive.
  Bytes reference;
  std::vector<double> secs;
  const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const auto t0 = std::chrono::steady_clock::now();
  while (secs.size() < kMinCalls || since(t0) < budget) {
    ++r.attempted;
    try {
      const auto c0 = std::chrono::steady_clock::now();
      Bytes archive = compress(field.const_view(), opt);
      secs.push_back(since(c0));
      if (reference.empty()) {
        reference = std::move(archive);
      } else {
        r.check(archive == reference, "compress() output differs between calls");
      }
    } catch (const std::exception& e) {
      ++r.failed;
      r.note(std::string("write-dense: compress() threw: ") + e.what());
      if (r.failed > 3 && reference.empty()) break;
    }
  }
  if (reference.empty()) {
    r.check(false, "write-dense: no compress() call succeeded");
    return r;
  }

  const Summary call = summarize(secs);
  const double frac = check_archive(reference, field, cfg.seed, r);
  const double ratio =
      static_cast<double>(field_bytes) / static_cast<double>(reference.size());
  r.set("op_p50_ms", call.median * 1e3);
  r.set("first_result_ms", call.median * 1e3);
  r.set("throughput_mbps", mb_per_s(field_bytes, call.median));
  r.set("compression_ratio", ratio);
  r.set("fetch_frac_eb1e-4", frac);
  r.note("write-dense: 256^3 f64 Density + seeded noise, block 64, rel eb 1e-6, " +
         std::to_string(thread_count()) + " threads");
  r.figure("compress_mbps", mb_per_s(field_bytes, call.median), "MB/s",
           "field MiB / median call; call " + describe(call, 1e3, "ms"));
  r.figure("compression_ratio", ratio, "ratio",
           "archive " + std::to_string(reference.size()) + " bytes");
  r.figure("fetch_frac_eb1e-4", frac, "ratio", "");

  if (!cfg.trace) return r;

  // Traced calls: the same compression rebuilt from the layer calls.
  Tracer tracer;
  CompressCounts counts;
  std::vector<double> traced;
  const auto t1 = std::chrono::steady_clock::now();
  while (traced.size() < kMinCalls || since(t1) < cfg.seconds / 2) {
    ++r.attempted;
    try {
      counts = CompressCounts{};
      const auto c0 = std::chrono::steady_clock::now();
      const Bytes archive = traced_compress(field.const_view(), opt, tracer,
                                            traced.size() + 1, counts);
      traced.push_back(since(c0));
      r.check(archive == reference,
              "traced decomposition is not byte-identical to compress()");
    } catch (const std::exception& e) {
      ++r.failed;
      r.note(std::string("write-dense: traced compression threw: ") + e.what());
      if (r.failed > 3 && traced.empty()) break;
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  const double blocks_wall = tracer.total("core.blocks");
  r.set("compressor.minmax_s", tracer.total("compressor.minmax") / n);
  r.set("compressor.work_copy_s", tracer.total("compressor.work_copy") / n);
  r.set("core.block_wall_s", blocks_wall / n);
  r.set("core.block_utilization",
        blocks_wall > 0 ? tracer.total("core.block") / (blocks_wall * thread_count())
                        : 0.0);
  r.set("interp.sweep_cpu_s", tracer.total("interp.sweep") / n);
  r.set("bitplane.encode_level_cpu_s", tracer.total("bitplane.encode_level") / n);
  r.set("bitplane.plane_coding_cpu_s", tracer.total("bitplane.plane_coding") / n);
  r.set("coding.base_segment_cpu_s", tracer.total("coding.base_segment") / n);
  r.set("io.archive_finish_s", tracer.total("io.archive_finish") / n);
  r.set("quant.outliers", static_cast<double>(counts.outliers));
  r.set("bitplane.planes", static_cast<double>(counts.planes));
  const char* methods[] = {"empty", "raw", "rle", "lzh", "bitpack"};
  for (std::size_t m = 0; m < counts.methods.size(); ++m) {
    r.set(std::string("coding.method.") + methods[m],
          static_cast<double>(counts.methods[m]));
  }
  r.set("io.segments", static_cast<double>(counts.segments));
  r.set("io.archive_bytes", static_cast<double>(counts.archive_bytes));
  r.set("trace.overhead", median(traced) / call.median);
  r.set("trace.spans", static_cast<double>(tracer.spans().size()));
  const std::string dump = cfg.out_dir + "/spans-write-dense-seed" +
                           std::to_string(cfg.seed) + ".json";
  tracer.dump(dump);
  r.note("  traced decomposition: " + describe(summarize(traced), 1e3, "ms") +
         ", spans written to " + dump);
  return r;
}

}  // namespace perfbench
