#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

MetricDef e2e(std::string name, std::string unit, std::string better,
              double bound) {
  MetricDef m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.better = std::move(better);
  m.end_to_end = true;
  m.bound = bound;
  return m;
}

constexpr const char* kWD = "write-dense";
constexpr const char* kRP = "read-progressive";
constexpr const char* kRS = "remote-sessions";

std::vector<MetricDef> build() {
  std::vector<MetricDef> v = {
      e2e("setup_s", "s", "lower", 0.25),
      e2e("peak_rss_mb", "MB", "lower", 0.1),
      e2e("success_rate", "ratio", "higher", 0.01),
      e2e("op_p50_ms", "ms", "lower", 0.25),
      e2e("first_result_ms", "ms", "lower", 0.25),
      e2e("throughput_mbps", "MB/s", "higher", 0.25),
      e2e("compression_ratio", "ratio", "higher", 0.02),
      e2e("fetch_frac_eb1e-4", "ratio", "lower", 0.02),
  };
  auto layer = [&](std::string name, std::string unit, std::string better,
                   std::string lyr, std::string moves, std::string works,
                   std::string bypass, std::string exact) {
    MetricDef m;
    m.name = std::move(name);
    m.unit = std::move(unit);
    m.better = std::move(better);
    m.layer = std::move(lyr);
    m.moves = std::move(moves);
    m.works_in = std::move(works);
    m.bypassed_by = std::move(bypass);
    m.exactness = std::move(exact);
    v.push_back(std::move(m));
  };
  const std::string wd_tp = "throughput_mbps@write-dense";
  const std::string wd_tp_ratio =
      "throughput_mbps@write-dense, compression_ratio@write-dense";

  // core/compressor driver
  layer("compressor.minmax_s", "s", "lower", "core/compressor", wd_tp, kWD, kRP, "timing");
  layer("compressor.work_copy_s", "s", "lower", "core/compressor", wd_tp, kWD, kRP, "timing");
  layer("core.block_wall_s", "s", "lower", "core/compressor", wd_tp, kWD, kRP, "timing");
  layer("core.block_utilization", "ratio", "higher", "core/compressor", wd_tp, kWD, kRP, "timing");
  // interp + quant
  layer("interp.sweep_cpu_s", "s", "lower", "interp", wd_tp, kWD, kRS, "timing");
  layer("quant.outliers", "count", "lower", "quant", wd_tp, kWD, kRS, "exact");
  // bitplane
  layer("bitplane.encode_level_cpu_s", "s", "lower", "bitplane", wd_tp, kWD, kRS, "timing");
  layer("bitplane.plane_coding_cpu_s", "s", "lower", "bitplane", wd_tp, kWD, kRS, "timing");
  layer("bitplane.planes", "count", "lower", "bitplane", wd_tp, kWD, kRS, "exact");
  // coding
  layer("coding.base_segment_cpu_s", "s", "lower", "coding", wd_tp_ratio, kWD, kRP, "timing");
  for (const char* method : {"empty", "raw", "rle", "lzh", "bitpack"}) {
    layer(std::string("coding.method.") + method, "count",
          std::string(method) == "raw" ? "lower" : "higher", "coding",
          wd_tp_ratio, kWD, kRP, "exact");
  }
  // io (build)
  layer("io.archive_finish_s", "s", "lower", "io", wd_tp_ratio, kWD, kRP, "timing");
  layer("io.segments", "count", "lower", "io", wd_tp_ratio, kWD, kRP, "exact");
  layer("io.archive_bytes", "bytes", "lower", "io", wd_tp_ratio, kWD, kRP, "exact");

  // core/progressive_reader
  const std::string rp_all =
      "first_result_ms@read-progressive, op_p50_ms@read-progressive, "
      "throughput_mbps@read-progressive, fetch_frac_eb1e-4@read-progressive";
  layer("progressive_reader.open_ms", "ms", "lower", "core/progressive_reader",
        rp_all, kRP, kWD, "timing");
  for (const char* step : kSteps) {
    const std::string s = step;
    layer("progressive_reader.plan_ms." + s, "ms", "lower",
          "core/progressive_reader", rp_all, kRP, kWD, "timing");
    layer("progressive_reader.exec_self_ms." + s, "ms", "lower",
          "core/progressive_reader", rp_all, kRP, kWD, "timing");
    layer("plan.segments." + s, "count", "lower", "core/progressive_reader",
          rp_all, kRP, kWD, "exact");
    layer("plan.bytes_new." + s, "bytes", "lower", "core/progressive_reader",
          rp_all, kRP, kWD, "exact");
    layer("progressive_reader.tightness." + s, "ratio", "higher",
          "core/progressive_reader", rp_all, kRP, kWD, "exact");
    layer("io.fetch_ms." + s, "ms", "lower", "io", "op_p50_ms@read-progressive",
          kRP, kWD, "timing");
  }
  // io (fetch)
  const std::string rp_ladder = "op_p50_ms@read-progressive";
  layer("io.read_calls", "count", "lower", "io", rp_ladder, kRP, kWD, "exact");
  layer("io.coalesced_ranges", "count", "lower", "io", rp_ladder, kRP, kWD, "exact");
  layer("io.bytes_read", "bytes", "lower", "io", rp_ladder, kRP, kWD, "exact");
  layer("io.fetch_ratio", "ratio", "lower", "io", rp_ladder, kRP, kWD, "exact");
  layer("read.first_view_ms", "ms", "lower", "core/progressive_reader",
        "first_result_ms@read-progressive", kRP, kWD, "timing");
  layer("read.ladder_s", "s", "lower", "core/progressive_reader",
        "op_p50_ms@read-progressive", kRP, kWD, "timing");

  // net (client)
  const std::string rs = "op_p50_ms@remote-sessions, throughput_mbps@remote-sessions";
  const std::string not_rs = "write-dense, read-progressive";
  for (const char* n : {"net.open_ms", "net.plan_ms", "net.execute_ms",
                        "client.decode_ms", "net.wait_ms"}) {
    layer(n, "ms", "lower", "net (client)", rs, kRS, not_rs, "timing");
  }
  layer("net.retries", "count", "lower", "net (client)", rs, kRS, not_rs, "exact");
  layer("net.recoveries", "count", "lower", "net (client)", rs, kRS, not_rs, "exact");
  layer("remote.req_per_s", "1/s", "higher", "net (client)", rs, kRS, not_rs, "timing");
  layer("remote.p90_ms", "ms", "lower", "net (client)", rs, kRS, not_rs, "timing");
  // net (server)
  const std::string rs_p50 = "op_p50_ms@remote-sessions";
  layer("net.frames_in", "count", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.frames_out", "count", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.frames_per_req", "ratio", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.wire_bytes_out", "bytes", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.payload_bytes_sent", "bytes", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.wire_over_logical", "ratio", "lower", "net (server)", rs_p50, kRS, not_rs, "timing");
  layer("net.errors_sent", "count", "lower", "net (server)", rs_p50, kRS, not_rs, "exact");
  layer("net.slow_client_evictions", "count", "lower", "net (server)", rs_p50, kRS, not_rs, "exact");
  // serve
  const std::string rs_tp = "throughput_mbps@remote-sessions";
  layer("serve.cache_hits", "count", "higher", "serve", rs_tp, kRS, not_rs, "interleaving");
  layer("serve.cache_misses", "count", "lower", "serve", rs_tp, kRS, not_rs, "interleaving");
  layer("serve.cache_evictions", "count", "lower", "serve", rs_tp, kRS, not_rs, "interleaving");
  layer("serve.cache_hit_rate", "ratio", "higher", "serve", rs_tp, kRS, not_rs, "interleaving");
  layer("serve.physical_read_calls", "count", "lower", "serve", rs_tp, kRS, not_rs, "interleaving");
  layer("serve.physical_bytes_read", "bytes", "lower", "serve", rs_tp, kRS, not_rs, "interleaving");

  // the tracer itself
  layer("trace.overhead", "ratio", "lower", "benchmark tracer", "(none)",
        "all", "(none)", "timing");
  layer("trace.spans", "count", "lower", "benchmark tracer", "(none)", "all",
        "(none)", "timing");
  return v;
}

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = build();
  return defs;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int emit(const Report& r, bool trace) {
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  bool correct = r.correct();
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::ostringstream metrics;
  bool first = true;
  for (const MetricDef& m : catalogue()) {
    if (m.end_to_end == trace) continue;
    auto it = r.values.find(m.name);
    double value = 0.0;  // a per-layer metric of a bypassed layer
    if (it != r.values.end()) {
      value = it->second;
    } else if (m.end_to_end) {
      std::printf("VIOLATION: end-to-end metric %s was not measured\n",
                  m.name.c_str());
      correct = false;
    }
    if (!std::isfinite(value)) {
      std::printf("VIOLATION: metric %s is not finite\n", m.name.c_str());
      correct = false;
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << quote(m.name) << ": {\"value\": "
            << number(value) << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string catalogue_json() {
  std::ostringstream o;
  o << "{\"end_to_end\": [";
  bool first = true;
  for (const MetricDef& m : catalogue()) {
    if (!m.end_to_end) continue;
    o << (first ? "\n" : ",\n") << "  {\"name\": " << quote(m.name)
      << ", \"unit\": " << quote(m.unit) << ", \"better\": " << quote(m.better)
      << ", \"bound\": " << m.bound << "}";
    first = false;
  }
  o << "\n], \"per_layer\": [";
  first = true;
  for (const MetricDef& m : catalogue()) {
    if (m.end_to_end) continue;
    o << (first ? "\n" : ",\n") << "  {\"name\": " << quote(m.name)
      << ", \"unit\": " << quote(m.unit) << ", \"better\": " << quote(m.better)
      << ", \"layer\": " << quote(m.layer) << ", \"should_move\": "
      << quote(m.moves) << ", \"works_in\": " << quote(m.works_in)
      << ", \"bypassed_by\": " << quote(m.bypassed_by)
      << ", \"exactness\": " << quote(m.exactness) << "}";
    first = false;
  }
  o << "\n]}\n";
  return o.str();
}

}  // namespace perfbench
