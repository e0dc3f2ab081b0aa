// perfbench: the seeded end-to-end benchmark.  See ../README.md.
//
//   perfbench --workload <write-dense|read-progressive|remote-sessions>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --catalogue
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit code 1 on any correctness violation, 2 on bad usage or
// a fatal error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(_OPENMP)
#include <omp.h>
#endif

#include "report.hpp"
#include "workloads.hpp"

namespace {

/// Compression and local decode threads (the benchmark is sized for 4 cores).
constexpr int kThreads = 4;

/// Keeps freed memory in the process heap.  By default glibc maps every
/// buffer above 32 MiB (a 256^3 f64 field is 128 MiB) with mmap and unmaps
/// it on free, so every operation faults its buffers in again.  On a
/// virtual machine whose balloon reports free pages to the host, that
/// refault goes to the host and its cost follows the host's load: it was a
/// quarter of a one-shot full() and the largest part of its run-to-run
/// spread.  A long-lived process that reuses its heap is the case measured.
/// Only the local workloads use it: remote-sessions allocates 16 MiB at
/// most, and per-thread arenas that never trim would make its peak RSS
/// follow the interleaving of its client threads.
void retain_heap() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --catalogue\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--catalogue") {
      std::fputs(catalogue_json().c_str(), stdout);
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--out-dir") {
        cfg.out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("malformed value for " + a).c_str());
    }
  }
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

#if defined(_OPENMP)
  omp_set_num_threads(kThreads);
#endif
  try {
    std::filesystem::create_directories(cfg.out_dir);
    Report r;
    if (workload == "write-dense") {
      retain_heap();
      r = run_write_dense(cfg);
    } else if (workload == "read-progressive") {
      retain_heap();
      r = run_read_progressive(cfg);
    } else if (workload == "remote-sessions") {
      r = run_remote_sessions(cfg);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
    r.set("success_rate",
          r.attempted ? 1.0 - static_cast<double>(r.failed) /
                                  static_cast<double>(r.attempted)
                      : 0.0);
    r.set("peak_rss_mb", peak_rss_mb());
    r.figure("setup_s", r.values["setup_s"], "s",
             "median of " + std::to_string(kSetupRepeats) + " setups");
    r.figure("peak_rss_mb", r.values["peak_rss_mb"], "MB", "");
    r.figure("error_rate",
             r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                         : 1.0,
             "ratio",
             std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
                 " operations failed");
    return emit(r, cfg.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 2;
  }
}
