// The three workloads.  Each sets itself up from the seed several times
// (setup_s is the median), measures for the configured seconds, checks its
// outputs outside the timed calls, and fills a Report.  A traced run spends
// the first half of its time untraced and the second half traced, and
// reports the ratio of the two as trace.overhead.
#pragma once

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/bytes.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace perfbench {

/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

Report run_write_dense(const RunConfig& cfg);
Report run_read_progressive(const RunConfig& cfg);
Report run_remote_sessions(const RunConfig& cfg);

/// Runs `setup` kSetupRepeats times and returns the median seconds; the
/// state it leaves is the last run's.  `teardown` undoes a setup between
/// repeats, untimed.
template <typename Setup, typename Teardown>
double median_setup(Setup&& setup, Teardown&& teardown) {
  std::vector<double> secs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) teardown();
    const auto t0 = std::chrono::steady_clock::now();
    setup();
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0).count());
  }
  return median(secs);
}

template <typename Setup>
double median_setup(Setup&& setup) {
  return median_setup(setup, [] {});
}

/// An archive file the run writes; removed when the run ends, however it
/// ends.
struct ScratchFile {
  std::string path;
  ~ScratchFile() { std::remove(path.c_str()); }
  void write(const ipcomp::Bytes& bytes) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const bool ok = f && std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (!f || std::fclose(f) != 0 || !ok) {
      throw std::runtime_error("perfbench: cannot write " + path);
    }
  }
};

/// Seconds since `t0`.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
