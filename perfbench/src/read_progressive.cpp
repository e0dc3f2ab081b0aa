// read-progressive: fresh file readers running a progressive ladder, then a
// one-shot full retrieval.
//
// Exercises ProgressiveReader plan, fetch, decode/deposit and
// reconstruct/refine over a FileSource; compression runs only in setup and
// the serve and net layers are bypassed.  Same interp/bitplane/coding code
// as write-dense in the read direction, so a write-side gain that costs
// reads shows here.
#include <unistd.h>

#include <cstdio>

#include "core/compressor.hpp"
#include "ladder.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

constexpr std::size_t kMinIterations = 3;

struct StepFigures {
  std::uint64_t segments = 0;
  std::uint64_t bytes_new = 0;
  double tightness = 0.0;
};

/// One iteration's figures.
struct Iteration {
  double first_view_s = 0.0;
  double ladder_s = 0.0;
  double oneshot_s = 0.0;
  double frac = 0.0;
  std::map<std::string, StepFigures> steps;
  SourceStats io;
  std::uint64_t planned = 0;
};

/// Opens a fresh reader over the archive file; returns the open seconds.
/// The previous reader (if any) is released first, outside the timed open.
double open_reader(const std::string& path, Tracer* tracer,
                   std::uint64_t request, std::unique_ptr<TimedSource>& src,
                   std::unique_ptr<ProgressiveReader<double>>& reader) {
  reader.reset();  // before its source: the reader refers to it
  src.reset();
  Span s(tracer, "progressive_reader.open", request);
  src = std::make_unique<TimedSource>(std::make_unique<FileSource>(path), tracer);
  reader = std::make_unique<ProgressiveReader<double>>(*src);
  return s.close();
}

void record(Iteration& it, const std::string& label, const StepResult& res) {
  StepFigures& f = it.steps[label];
  f.segments = res.plan.segments.size();
  f.bytes_new = res.stats.bytes_new;
  f.tightness = res.stats.guaranteed_error > 0
                    ? res.linf / res.stats.guaranteed_error
                    : 0.0;
  it.planned += res.plan.bytes_new;
}

/// The ladder on one fresh reader, then a one-shot full() on another.  Every
/// step counts as one operation; a throwing step fails it and ends the
/// iteration.
bool iterate(const std::string& path, const NdArray<double>& field,
             const std::vector<Step>& ladder, std::size_t archive_bytes,
             Tracer* tracer, std::uint64_t request, Report& r, Iteration& it) {
  try {
    std::unique_ptr<TimedSource> src;
    std::unique_ptr<ProgressiveReader<double>> reader;
    ++r.attempted;
    it.ladder_s = open_reader(path, tracer, request, src, reader);
    std::uint64_t sum_new = 0;
    RetrievalStats last;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      if (k > 0) ++r.attempted;
      src->set_step(ladder[k].label, request);
      const StepResult res = run_step(*reader, ladder[k], field, r, tracer, request);
      it.ladder_s += res.plan_s + res.exec_s;
      if (k == 0) it.first_view_s = it.ladder_s;
      if (ladder[k].label == "eb1e-4") {
        it.frac = static_cast<double>(res.stats.bytes_total) /
                  static_cast<double>(archive_bytes);
      }
      record(it, ladder[k].label, res);
      sum_new += res.stats.bytes_new;
      last = res.stats;
    }
    check_byte_sum(sum_new, last, r, "read-progressive ladder");
    const SourceStats ladder_io = src->stats();

    ++r.attempted;
    const Step oneshot{"oneshot", Request::full()};
    it.oneshot_s = open_reader(path, tracer, request, src, reader);
    src->set_step(oneshot.label, request);
    const StepResult res = run_step(*reader, oneshot, field, r, tracer, request);
    it.oneshot_s += res.plan_s + res.exec_s;
    record(it, oneshot.label, res);
    check_byte_sum(res.stats.bytes_new, res.stats, r, "read-progressive one-shot");
    const SourceStats one_io = src->stats();
    it.io.bytes_read = ladder_io.bytes_read + one_io.bytes_read;
    it.io.read_calls = ladder_io.read_calls + one_io.read_calls;
    it.io.coalesced_ranges = ladder_io.coalesced_ranges + one_io.coalesced_ranges;
    return true;
  } catch (const std::exception& e) {
    ++r.failed;
    r.note(std::string("read-progressive: retrieval threw: ") + e.what());
    return false;
  }
}

/// Median over `spans` named `name` of their durations (ms).
double median_ms(const Tracer& t, const std::string& name) {
  return median(t.durations(name)) * 1e3;
}

/// Median self time (ms) of the spans named `name`.
double median_self_ms(const Tracer& t, const std::string& name) {
  const std::vector<SpanRecord> all = t.spans();
  const auto self = self_seconds(all);
  std::vector<double> v;
  for (const SpanRecord& s : all) {
    if (s.name == name) v.push_back(self.at(s.id));
  }
  return median(v) * 1e3;
}

}  // namespace

Report run_read_progressive(const RunConfig& cfg) {
  Report r;
  const Dims dims{256, 256, 256};
  Options opt;
  opt.block_side = 64;
  opt.error_bound = 1e-6;
  const ScratchFile file{cfg.out_dir + "/read-progressive-" + std::to_string(getpid()) +
                 ".ipc"};

  NdArray<double> field;
  std::size_t archive_bytes = 0;
  r.set("setup_s", median_setup([&] {
    field = NdArray<double>();
    field = make_field(Field::kWave, dims, cfg.seed);
    const Bytes archive = compress(field.const_view(), opt);
    file.write(archive);
    archive_bytes = archive.size();
  }));
  const std::size_t field_bytes = field.count() * sizeof(double);
  const std::vector<Step> ladder = local_ladder(dims, field_range(field), cfg.seed);

  auto measure = [&](Tracer* tracer, double budget, std::vector<Iteration>& out) {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t tries = 0;
    while (out.size() < kMinIterations || since(t0) < budget) {
      Iteration it;
      if (iterate(file.path, field, ladder, archive_bytes, tracer, ++tries, r, it)) {
        out.push_back(std::move(it));
      } else if (out.empty() && tries > 3) {
        break;
      }
    }
  };
  auto pick = [](const std::vector<Iteration>& v, double Iteration::*m) {
    std::vector<double> x;
    for (const Iteration& it : v) x.push_back(it.*m);
    return summarize(x);
  };

  std::vector<Iteration> runs;
  measure(nullptr, cfg.trace ? cfg.seconds / 2 : cfg.seconds, runs);
  if (runs.empty()) {
    r.check(false, "read-progressive: no iteration succeeded");
    return r;
  }
  for (const Iteration& it : runs) {
    r.check(it.frac == runs.front().frac && it.io.bytes_read == runs.front().io.bytes_read,
            "read-progressive: byte accounting differs between identical iterations");
  }
  const Summary first = pick(runs, &Iteration::first_view_s);
  const Summary lad = pick(runs, &Iteration::ladder_s);
  const Summary one = pick(runs, &Iteration::oneshot_s);
  const double ratio =
      static_cast<double>(field_bytes) / static_cast<double>(archive_bytes);
  r.set("op_p50_ms", lad.median * 1e3);
  r.set("first_result_ms", first.median * 1e3);
  r.set("throughput_mbps", mb_per_s(field_bytes, one.lower_quartile));
  r.set("compression_ratio", ratio);
  r.set("fetch_frac_eb1e-4", runs.front().frac);
  r.note("read-progressive: 256^3 f64 Wave + seeded noise, block 64, rel eb 1e-6, "
         "archive " + std::to_string(archive_bytes) + " bytes");
  r.figure("first_view_ms", first.median * 1e3, "ms",
           "open + bitrate 1.0; " + describe(first, 1e3, "ms"));
  r.figure("ladder_s", lad.median, "s", "open + 4 steps; " + describe(lad, 1, "s"));
  r.figure("decompress_mbps", mb_per_s(field_bytes, one.lower_quartile), "MB/s",
           "field MiB / p25 one-shot open + full(); " + describe(one, 1e3, "ms"));
  r.figure("compression_ratio", ratio, "ratio", "");
  r.figure("fetch_frac_eb1e-4", runs.front().frac, "ratio",
           "cumulative bytes at eb 1e-4*range / archive bytes");

  if (!cfg.trace) return r;

  Tracer tracer;
  std::vector<Iteration> traced;
  measure(&tracer, cfg.seconds / 2, traced);
  if (traced.empty()) {
    r.check(false, "read-progressive: no traced iteration succeeded");
    return r;
  }
  const Iteration& it = traced.front();
  r.set("progressive_reader.open_ms", median_ms(tracer, "progressive_reader.open"));
  for (const char* step : kSteps) {
    const std::string s = step;
    const StepFigures& f = it.steps.at(s);
    r.set("progressive_reader.plan_ms." + s,
          median_ms(tracer, "progressive_reader.plan." + s));
    r.set("progressive_reader.exec_self_ms." + s,
          median_self_ms(tracer, "progressive_reader.execute." + s));
    r.set("io.fetch_ms." + s, median_ms(tracer, "io.fetch." + s));
    r.set("plan.segments." + s, static_cast<double>(f.segments));
    r.set("plan.bytes_new." + s, static_cast<double>(f.bytes_new));
    r.set("progressive_reader.tightness." + s, f.tightness);
  }
  r.set("io.read_calls", static_cast<double>(it.io.read_calls));
  r.set("io.coalesced_ranges", static_cast<double>(it.io.coalesced_ranges));
  r.set("io.bytes_read", static_cast<double>(it.io.bytes_read));
  r.set("io.fetch_ratio", it.planned ? static_cast<double>(it.io.bytes_read) /
                                           static_cast<double>(it.planned)
                                     : 0.0);
  r.set("read.first_view_ms", first.median * 1e3);
  r.set("read.ladder_s", lad.median);
  std::vector<double> untraced_total, traced_total;
  for (const Iteration& x : runs) untraced_total.push_back(x.ladder_s + x.oneshot_s);
  for (const Iteration& x : traced) traced_total.push_back(x.ladder_s + x.oneshot_s);
  r.set("trace.overhead", median(traced_total) / median(untraced_total));
  r.set("trace.spans", static_cast<double>(tracer.spans().size()));
  const std::string dump = cfg.out_dir + "/spans-read-progressive-seed" +
                           std::to_string(cfg.seed) + ".json";
  tracer.dump(dump);
  r.note("  traced iterations: " + std::to_string(traced.size()) +
         ", spans written to " + dump);
  return r;
}

}  // namespace perfbench
