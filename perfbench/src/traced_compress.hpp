// compress() rebuilt block by block from the library's public layer calls,
// with a span around each call, so the traced write-dense run can say where
// a compression's time goes.  The result must be byte-identical to
// ipcomp::compress() for the same input and options (the run checks it), so
// the traced run measures the same program.  Interp backend, block mode
// (block_side != 0), float64 input only: what the write-dense workload runs.
#pragma once

#include <array>
#include <cstdint>

#include "core/options.hpp"
#include "io/bytes.hpp"
#include "trace.hpp"
#include "util/ndarray.hpp"

namespace perfbench {

/// Exact counts of one traced compression (timings live in the spans).
struct CompressCounts {
  std::uint64_t outliers = 0;
  std::uint64_t planes = 0;
  std::uint64_t segments = 0;
  std::uint64_t archive_bytes = 0;
  /// Coded segments per ipcomp::CodecMethod tag (empty, raw, rle, lzh,
  /// bitpack).
  std::array<std::uint64_t, 5> methods{};
};

/// Span names: compress > {compressor.minmax, bench.header_range,
/// compressor.work_copy, core.blocks > core.block > {interp.sweep,
/// bitplane.encode_level, coding.base_segment, bitplane.plane_coding},
/// io.archive_finish}.
ipcomp::Bytes traced_compress(ipcomp::NdConstView<double> input,
                              const ipcomp::Options& opt, Tracer& tracer,
                              std::uint64_t request, CompressCounts& counts);

}  // namespace perfbench
