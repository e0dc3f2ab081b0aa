#include "traced_compress.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bitplane/bitplane.hpp"
#include "bitplane/negabinary.hpp"
#include "core/backend.hpp"
#include "core/blocks.hpp"
#include "core/compressor.hpp"
#include "core/header.hpp"
#include "interp/sweep.hpp"
#include "io/archive.hpp"
#include "quant/quantizer.hpp"
#include "util/parallel.hpp"
#include "util/sync.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

/// The header's data_min/data_max.  compress() computes them in the same
/// pass that resolves the bound; that pass is private, so the benchmark
/// repeats its semantics (non-finite values skipped, empty range -> 0, 0).
std::pair<double, double> header_range(NdConstView<double> v) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < v.count(); ++i) {
    const double x = v[i];
    if (std::isfinite(x)) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  if (!std::isfinite(lo)) return {0.0, 0.0};
  return {lo, hi};
}

void count_method(const Bytes& coded, CompressCounts& c) {
  if (!coded.empty() && coded[0] < c.methods.size()) ++c.methods[coded[0]];
}

/// Tag of the codec-coded code array inside a solid level's base segment:
/// varint outlier count, (varint slot gap, f64 value) pairs, varint length,
/// then the coded bytes.
void count_solid_base(const Bytes& base, CompressCounts& c) {
  ByteReader r({base.data(), base.size()});
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    r.varint();
    r.f64();
  }
  const std::uint64_t len = r.varint();
  if (len > 0 && r.remaining() > 0) {
    const std::uint8_t tag = base[r.position()];
    if (tag < c.methods.size()) ++c.methods[tag];
  }
}

struct BlockOut {
  BlockCompressResult result;
  CompressCounts counts;
};

/// The interp backend's per-block pipeline (InterpBackend::compress_block),
/// one span per layer call.
BlockOut traced_block(const double* original, double* work, const Dims& bd,
                      const std::array<std::size_t, kMaxRank>& estrides,
                      double eb, const Options& opt, std::uint32_t block,
                      Tracer& tracer, std::uint64_t request) {
  const LevelStructure ls = LevelStructure::analyze(bd);
  const unsigned L = ls.num_levels;
  const LinearQuantizer quant(eb);
  std::vector<LevelScratch> levels(L);
  for (unsigned li = 0; li < L; ++li) levels[li].codes.assign(ls.level_count[li], 0);

  Mutex outlier_mutex;  // as in the backend: free here, the sweep is serial
  {
    Span s(&tracer, "interp.sweep", request);
    interpolation_sweep_strided(
        work, ls, opt.interp, estrides,
        [&](unsigned li, std::size_t slot, std::size_t idx, double pred) -> double {
          std::int64_t code;
          double recon;
          if (quant.quantize(original[idx], pred, code, recon)) {
            levels[li].codes[slot] = negabinary_encode(code);
            return recon;
          }
          LockGuard lock(outlier_mutex);
          levels[li].outliers.emplace_back(slot, original[idx]);
          return original[idx];
        });
  }

  BlockOut out;
  out.result.levels.resize(L);
  for (unsigned li = 0; li < L; ++li) {
    LevelScratch& scratch = levels[li];
    std::sort(scratch.outliers.begin(), scratch.outliers.end());
    out.counts.outliers += scratch.outliers.size();
    LevelHeader& lh = out.result.levels[li];
    lh.count = scratch.codes.size();
    lh.outlier_count = scratch.outliers.size();
    lh.progressive = scratch.codes.size() >= opt.progressive_threshold;
    const auto level_tag = static_cast<std::uint16_t>(li + 1);
    auto& segs = out.result.segments;

    if (!lh.progressive) {
      lh.n_planes = 0;
      lh.loss.assign(1, 0);
      Span s(&tracer, "coding.base_segment", request);
      segs.emplace_back(SegmentId{kSegBase, level_tag, 0, block},
                        serialize_base_segment(scratch, false, opt.codec));
      s.close();
      count_solid_base(segs.back().second, out.counts);
      continue;
    }

    LevelEncoding enc;
    {
      Span s(&tracer, "bitplane.encode_level", request);
      enc = encode_level(scratch.codes, /*with_loss=*/true);
    }
    lh.n_planes = enc.n_planes;
    out.counts.planes += enc.n_planes;
    lh.loss.resize(enc.n_planes + 1);
    for (unsigned d = 0; d <= enc.n_planes; ++d) {
      lh.loss[d] = static_cast<std::uint64_t>(enc.loss[d]);
    }
    {
      Span s(&tracer, "coding.base_segment", request);
      segs.emplace_back(SegmentId{kSegBase, level_tag, 0, block},
                        serialize_base_segment(scratch, true, opt.codec));
    }
    const std::size_t first_plane = segs.size();
    {
      Span s(&tracer, "bitplane.plane_coding", request);
      append_plane_segments(scratch.codes, std::move(enc.planes), level_tag,
                            block, opt, segs);
    }
    for (std::size_t k = first_plane; k < segs.size(); ++k) {
      count_method(segs[k].second, out.counts);
    }
  }
  return out;
}

}  // namespace

Bytes traced_compress(NdConstView<double> input, const Options& opt,
                      Tracer& tracer, std::uint64_t request,
                      CompressCounts& counts) {
  if (opt.backend != BackendId::kInterp || opt.block_side == 0) {
    throw std::invalid_argument("traced_compress: interp block mode only");
  }
  Span root(&tracer, "compress", request);
  const Dims dims = input.dims();
  const std::size_t block_side =
      std::min(opt.block_side, std::max<std::size_t>(2, dims.max_extent()));
  const BlockGrid grid = BlockGrid::analyze(dims, block_side);

  double eb = 0.0;
  {
    Span s(&tracer, "compressor.minmax", request);
    eb = resolve_error_bound(input, opt);
  }
  std::pair<double, double> range;
  {
    Span s(&tracer, "bench.header_range", request);
    range = header_range(input);
  }
  std::vector<double> xhat;
  {
    Span s(&tracer, "compressor.work_copy", request);
    xhat.assign(input.span().begin(), input.span().end());
  }

  Header header;
  header.dtype = DataType::kFloat64;
  header.dims = dims;
  header.eb = eb;
  header.interp = opt.interp;
  header.prefix_bits = opt.prefix_bits;
  header.data_min = range.first;
  header.data_max = range.second;
  header.block_side = static_cast<std::uint32_t>(block_side);
  header.backend = opt.backend;
  header.backend_meta = backend_for(opt.backend).metadata(header);

  std::vector<BlockOut> blocks(grid.n_blocks);
  {
    Span region(&tracer, "core.blocks", request);
    const std::uint64_t parent = region.id();
    const auto estrides = dims.strides();
    parallel_for_ex(0, grid.n_blocks, [&](std::size_t b) {
      Span s(&tracer, "core.block", request, parent);
      const std::size_t org = grid.origin_linear(b);
      blocks[b] = traced_block(input.data() + org, xhat.data() + org,
                               grid.block_dims(b), estrides, eb, opt,
                               static_cast<std::uint32_t>(b), tracer, request);
    }, /*grain=*/2);
  }

  Span finish(&tracer, "io.archive_finish", request);
  ArchiveBuilder builder;
  builder.set_version(kArchiveV2);
  builder.set_integrity(opt.integrity);
  header.block_levels.resize(grid.n_blocks);
  for (std::size_t b = 0; b < grid.n_blocks; ++b) {
    header.block_levels[b] = std::move(blocks[b].result.levels);
    for (auto& [id, payload] : blocks[b].result.segments) {
      builder.add_segment(id, std::move(payload));
    }
    counts.outliers += blocks[b].counts.outliers;
    counts.planes += blocks[b].counts.planes;
    for (std::size_t m = 0; m < counts.methods.size(); ++m) {
      counts.methods[m] += blocks[b].counts.methods[m];
    }
  }
  builder.set_header(header.serialize());
  Bytes archive = builder.finish();
  finish.close();
  counts.segments += builder.segment_count();
  counts.archive_bytes += archive.size();
  return archive;
}

}  // namespace perfbench
