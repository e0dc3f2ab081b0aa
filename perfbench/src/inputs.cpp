#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "data/noise.hpp"
#include "util/checksum.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ipcomp::Dims;
using ipcomp::NdArray;
using ipcomp::RegionBox;
using ipcomp::Request;

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return ipcomp::detail::hash_u64(a ^ ipcomp::detail::hash_u64(b));
}

}  // namespace

double field_range(const NdArray<double>& a) {
  const auto [lo, hi] = std::minmax_element(a.data(), a.data() + a.count());
  return *hi - *lo;
}

NdArray<double> make_field(ipcomp::Field f, const Dims& dims,
                           std::uint64_t seed) {
  NdArray<double> out = ipcomp::generate_field(f, dims);
  const double amp = kNoiseShare * field_range(out);
  const std::uint64_t noise_seed = mix(seed, 0xF1E1D);
  const std::size_t nz = dims[0], ny = dims[1], nx = dims[2];
  ipcomp::parallel_for(0, nz, [&](std::size_t iz) {
    const double z = static_cast<double>(iz) / static_cast<double>(nz);
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double y = static_cast<double>(iy) / static_cast<double>(ny);
      double* row = out.data() + (iz * ny + iy) * nx;
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const double x = static_cast<double>(ix) / static_cast<double>(nx);
        row[ix] += amp * ipcomp::fbm3(8 * x, 8 * y, 8 * z, noise_seed, 4, 0.5);
      }
    }
  }, /*grain=*/1);
  return out;
}

RegionBox seeded_octant(const Dims& dims, std::uint64_t seed) {
  const std::uint64_t octant = mix(seed, 0x0C7A) % 8;
  RegionBox box;
  for (std::size_t d = 0; d < dims.rank(); ++d) {
    const std::size_t half = dims[d] / 2;
    const bool upper = (octant >> d) & 1u;
    box.lo[d] = upper ? half : 0;
    box.hi[d] = upper ? dims[d] : half;
  }
  return box;
}

std::vector<Step> local_ladder(const Dims& dims, double range,
                               std::uint64_t seed) {
  const RegionBox oct = seeded_octant(dims, seed);
  return {
      {"coarse", Request::bitrate(1.0)},
      {"eb1e-4", Request::error_bound(1e-4 * range)},
      {"region", Request::error_bound(1e-6 * range).within(oct.lo, oct.hi)},
      {"full", Request::full()},
  };
}

std::vector<Step> session_ladder(const Dims& dims, double range,
                                 std::uint64_t archive_bytes,
                                 std::uint64_t seed, unsigned client,
                                 std::uint64_t session) {
  ipcomp::Rng rng(mix(mix(seed, client + 1), session));
  const double coarse = std::pow(10.0, rng.uniform(-3.0, -2.0)) * range;
  RegionBox box;
  for (std::size_t d = 0; d < dims.rank(); ++d) {
    const std::size_t side = std::min<std::size_t>(dims[d], 32 + rng.uniform_u64(33));
    box.lo[d] = rng.uniform_u64(dims[d] - side + 1);
    box.hi[d] = box.lo[d] + side;
  }
  const auto topup = static_cast<std::uint64_t>(
      static_cast<double>(archive_bytes) * rng.uniform(0.01, 0.04));
  return {
      {"coarse", Request::error_bound(coarse)},
      {"region", Request::error_bound(1e-5 * range).within(box.lo, box.hi)},
      {"topup", Request::bytes(topup)},
      {"eb1e-4", Request::error_bound(1e-4 * range)},
  };
}

std::uint64_t client_phase(std::uint64_t seed, unsigned client) {
  return mix(seed, 0xC11E47 + client) % 1000;
}

std::uint64_t hash_values(const std::vector<double>& v) {
  return ipcomp::checksum64(reinterpret_cast<const std::uint8_t*>(v.data()),
                            v.size() * sizeof(double));
}

double linf(const NdArray<double>& a, const std::vector<double>& b,
            const RegionBox* box) {
  const Dims& dims = a.dims();
  std::array<std::size_t, ipcomp::kMaxRank> lo{}, hi{};
  for (std::size_t d = 0; d < dims.rank(); ++d) {
    lo[d] = box ? box->lo[d] : 0;
    hi[d] = box ? std::min(box->hi[d], dims[d]) : dims[d];
  }
  const std::size_t ny = dims[1], nx = dims[2];
  std::vector<double> slab(dims[0], 0.0);
  ipcomp::parallel_for(lo[0], hi[0], [&](std::size_t z) {
    double m = 0.0;
    for (std::size_t y = lo[1]; y < hi[1]; ++y) {
      const std::size_t row = (z * ny + y) * nx;
      for (std::size_t x = lo[2]; x < hi[2]; ++x) {
        const double d = std::abs(a[row + x] - b[row + x]);
        m = std::isnan(d) ? HUGE_VAL : std::max(m, d);  // NaN never passes
      }
    }
    slab[z] = m;
  }, /*grain=*/1);
  return *std::max_element(slab.begin(), slab.end());
}

}  // namespace perfbench
