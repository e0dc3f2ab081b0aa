// Metric catalogue, per-run report, and the result line.
//
// The catalogue is the single list of every metric the benchmark emits:
// end-to-end metrics (untraced runs; every workload reports each one) and
// per-layer metrics (traced runs; a layer a workload bypasses reads 0).  For
// each per-layer metric it records the layer, the end-to-end metric a change
// to that layer should move, the workload doing the work, the workload that
// bypasses it, and whether the figure is exact (a pure function of the seed)
// or depends on timing or thread interleaving.  BENCHMARK.json and
// layers.json mirror it; `perfbench --catalogue` prints it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "higher" | "lower"
  bool end_to_end = false;
  double bound = 0.0;  // end-to-end only: allowed relative worsening
  std::string layer;   // per-layer only, from here on
  std::string moves;
  std::string works_in;
  std::string bypassed_by;
  std::string exactness;  // "exact" | "timing" | "interleaving"
};

const std::vector<MetricDef>& catalogue();

/// The ladder steps the per-step reader metrics are reported for.
inline const char* const kSteps[] = {"coarse", "eb1e-4", "region", "full",
                                     "oneshot"};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What one run found: metric values, operation accounting, correctness
/// violations, and human-readable lines printed before the result line.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> values;
  std::vector<std::string> lines;

  bool correct() const { return violations.empty(); }
  /// Records a correctness violation when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  void set(const std::string& name, double v) { values[name] = v; }
  void note(std::string line) { lines.push_back(std::move(line)); }
  /// A readable "  <name> <value> <unit>  (<detail>)" line.
  void figure(const std::string& name, double value, const std::string& unit,
              const std::string& detail) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "  %-20s %.6g %s", name.c_str(), value,
                  unit.c_str());
    note(std::string(buf) + (detail.empty() ? "" : "  (" + detail + ")"));
  }
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Prints the report's lines, then the result line: one JSON object with
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
/// Returns the process exit code (nonzero on any violation).
int emit(const Report& r, bool trace);

/// JSON of the catalogue (for BENCHMARK.json / layers.json upkeep).
std::string catalogue_json();

}  // namespace perfbench
