// Tests of the benchmark's own helpers: the tail-percentile rule, span self
// time, and seed determinism of the generated inputs.  Plain checks (they
// stay active in Release builds); exit code 1 on any failure.
#include <cmath>
#include <cstdio>
#include <variant>

#include "core/compressor.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_compress.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_tail_rule() {
  using perfbench::tail_per_mille;
  CHECK(tail_per_mille(9) == 0);     // median only
  CHECK(tail_per_mille(39) == 0);    // p75 would have 9 beyond
  CHECK(tail_per_mille(40) == 750);  // exactly 10 beyond p75
  CHECK(tail_per_mille(99) == 750);  // p90 would have 9 beyond
  CHECK(tail_per_mille(100) == 900);
  CHECK(tail_per_mille(199) == 900);
  CHECK(tail_per_mille(200) == 950);
  CHECK(tail_per_mille(1000) == 990);
  CHECK(tail_per_mille(9999) == 990);
  CHECK(tail_per_mille(10000) == 999);
  CHECK(perfbench::samples_beyond(10000, 999) == 10);

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Summary s = perfbench::summarize(v);
  CHECK(s.n == 100);
  CHECK(near(s.median, 50.5));
  CHECK(near(s.lower_quartile, 25.0));  // nearest rank: ceil(100 * 0.25)
  CHECK(s.tail_per_mille == 900);
  CHECK(near(s.tail, 90.0));  // ten samples (91..100) lie beyond it
}

void test_self_time() {
  using perfbench::SpanRecord;
  // Parent [0, 10); children [1, 3), [2, 5) overlap (two threads), [8, 12)
  // runs past the parent's end: covered = [1, 5) + [8, 10) = 6.
  std::vector<SpanRecord> spans = {
      {"parent", 1, 0, 7, 0.0, 10.0, 0},
      {"a", 2, 1, 7, 1.0, 3.0, 1},
      {"b", 3, 1, 7, 2.0, 5.0, 2},
      {"c", 4, 1, 7, 8.0, 12.0, 1},
      {"grandchild", 5, 2, 7, 1.5, 2.5, 1},
  };
  const auto self = perfbench::self_seconds(spans);
  CHECK(near(self.at(1), 4.0));
  CHECK(near(self.at(2), 1.0));  // [1, 3) minus its child [1.5, 2.5)
  CHECK(near(self.at(3), 3.0));
  CHECK(near(self.at(4), 4.0));
  CHECK(near(self.at(5), 1.0));
  CHECK(near(perfbench::covered_seconds(0, 1, {}), 0.0));

  // Spans recorded through the tracer nest by thread-local parent.
  perfbench::Tracer tracer;
  std::uint64_t outer_id = 0;
  {
    perfbench::Span outer(&tracer, "outer", 1);
    outer_id = outer.id();
    perfbench::Span inner(&tracer, "inner", 1);
  }
  const auto recorded = tracer.spans();
  CHECK(recorded.size() == 2);
  for (const SpanRecord& s : recorded) {
    if (s.name == "inner") CHECK(s.parent == outer_id);
    if (s.name == "outer") CHECK(s.parent == 0);
  }
}

double coarse_target(const std::vector<perfbench::Step>& ladder) {
  return std::get<ipcomp::Request::ErrorBound>(ladder[0].request.target).target;
}

void test_seed_determinism() {
  using namespace ipcomp;
  const Dims dims{32, 32, 32};
  const NdArray<double> a = perfbench::make_field(Field::kDensity, dims, 1);
  const NdArray<double> b = perfbench::make_field(Field::kDensity, dims, 1);
  const NdArray<double> c = perfbench::make_field(Field::kDensity, dims, 2);
  auto values = [](const NdArray<double>& x) {
    return std::vector<double>(x.data(), x.data() + x.count());
  };
  CHECK(perfbench::hash_values(values(a)) == perfbench::hash_values(values(b)));
  CHECK(perfbench::hash_values(values(a)) != perfbench::hash_values(values(c)));

  // Same seed: identical archives and exact counts, also through the traced
  // decomposition, which must match compress() byte for byte.
  Options opt;
  opt.block_side = 16;
  opt.error_bound = 1e-6;
  opt.progressive_threshold = 256;
  const Bytes ref = compress(a.const_view(), opt);
  CHECK(compress(b.const_view(), opt) == ref);
  perfbench::Tracer tracer;
  perfbench::CompressCounts ca, cb, cc;
  CHECK(perfbench::traced_compress(a.const_view(), opt, tracer, 1, ca) == ref);
  CHECK(perfbench::traced_compress(b.const_view(), opt, tracer, 2, cb) == ref);
  perfbench::traced_compress(c.const_view(), opt, tracer, 3, cc);
  CHECK(ca.archive_bytes == cb.archive_bytes && ca.segments == cb.segments &&
        ca.planes == cb.planes && ca.outliers == cb.outliers &&
        ca.methods == cb.methods);
  CHECK(ca.archive_bytes == ref.size());
  CHECK(ca.planes > 0);
  CHECK(cc.archive_bytes != ca.archive_bytes);

  // Same seed: same request schedule; another seed: another one.
  const auto s1 = perfbench::session_ladder(dims, 1.0, 100000, 1, 0, 5);
  const auto s1b = perfbench::session_ladder(dims, 1.0, 100000, 1, 0, 5);
  const auto s2 = perfbench::session_ladder(dims, 1.0, 100000, 2, 0, 5);
  CHECK(s1.size() == 4);
  CHECK(coarse_target(s1) == coarse_target(s1b));
  CHECK(s1[1].request.region->lo == s1b[1].request.region->lo);
  CHECK(coarse_target(s1) != coarse_target(s2));
  CHECK(perfbench::client_phase(1, 0) == perfbench::client_phase(1, 0));
  bool octants_differ = false;
  const auto first = perfbench::seeded_octant(dims, 1);
  for (std::uint64_t seed = 2; seed < 10; ++seed) {
    octants_differ |= perfbench::seeded_octant(dims, seed).lo != first.lo;
  }
  CHECK(octants_differ);
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_seed_determinism();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
