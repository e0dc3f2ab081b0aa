// Seeded inputs: the benchmark's seed picks every input the library sees.
//
// The field is one of the library's deterministic dataset generators plus a
// low-amplitude fBm term whose lattice is keyed by the seed, so two seeds
// give statistically alike but bitwise different fields (and archives).  The
// seed also places the region boxes and the remote clients' request
// schedules.  The library receives only the generated arrays and requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "data/datasets.hpp"
#include "util/ndarray.hpp"

namespace perfbench {

/// Amplitude of the seeded fBm term, as a share of the clean field's range.
inline constexpr double kNoiseShare = 2e-3;

/// generate_field(f, dims) plus kNoiseShare * range * fbm(seed).
ipcomp::NdArray<double> make_field(ipcomp::Field f, const ipcomp::Dims& dims,
                                   std::uint64_t seed);

/// Data range (max - min) of a field.
double field_range(const ipcomp::NdArray<double>& a);

/// One of the eight octants of `dims` (halves along each axis), chosen by
/// the seed.
ipcomp::RegionBox seeded_octant(const ipcomp::Dims& dims, std::uint64_t seed);

/// One labelled step of a retrieval ladder.
struct Step {
  std::string label;
  ipcomp::Request request;
};

/// The read-progressive ladder: bitrate 1.0 -> eb 1e-4*range ->
/// eb 1e-6*range within the seeded octant -> full.
std::vector<Step> local_ladder(const ipcomp::Dims& dims, double range,
                               std::uint64_t seed);

/// One remote session's 4-step ladder: a coarse error bound, eb 1e-5*range
/// within a seeded box, a byte top-up, then eb 1e-4*range.  The coarse
/// target, the box and the top-up budget depend on (seed, client, session).
std::vector<Step> session_ladder(const ipcomp::Dims& dims, double range,
                                 std::uint64_t archive_bytes,
                                 std::uint64_t seed, unsigned client,
                                 std::uint64_t session);

/// Seeded starting offset of a client's session sequence, so the clients do
/// not walk the same schedule in lockstep.
std::uint64_t client_phase(std::uint64_t seed, unsigned client);

/// XXH64 of a reconstruction's bytes (byte-identity checks).
std::uint64_t hash_values(const std::vector<double>& v);

/// L-infinity distance between `a` and `b` over the box (whole field when
/// `box` is null).
double linf(const ipcomp::NdArray<double>& a, const std::vector<double>& b,
            const ipcomp::RegionBox* box = nullptr);

}  // namespace perfbench
