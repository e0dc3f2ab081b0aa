#include "ladder.hpp"

#include <cstdio>

namespace perfbench {

using ipcomp::Bytes;
using ipcomp::SegmentId;
using ipcomp::SourceStats;

StepResult run_step(ipcomp::ProgressiveReader<double>& reader, const Step& step,
                    const ipcomp::NdArray<double>& original, Report& r,
                    Tracer* tracer, std::uint64_t request) {
  StepResult out;
  {
    Span s(tracer, "progressive_reader.plan." + step.label, request);
    out.plan = reader.plan(step.request);
    out.plan_s = s.close();
  }
  {
    Span s(tracer, "progressive_reader.execute." + step.label, request);
    out.stats = reader.execute(out.plan);
    out.exec_s = s.close();
  }
  const ipcomp::RegionBox* box =
      step.request.region ? &*step.request.region : nullptr;
  out.linf = linf(original, reader.data(), box);
  char what[256];
  std::snprintf(what, sizeof what,
                "%s: measured L-inf %.6g exceeds guaranteed %.6g", step.label.c_str(),
                out.linf, out.stats.guaranteed_error);
  r.check(out.linf <= out.stats.guaranteed_error * (1 + kGuaranteeSlack), what);
  std::snprintf(what, sizeof what, "%s: plan.bytes_new %llu != executed %zu",
                step.label.c_str(),
                static_cast<unsigned long long>(out.plan.bytes_new),
                out.stats.bytes_new);
  r.check(out.plan.bytes_new == out.stats.bytes_new, what);
  return out;
}

void check_byte_sum(std::uint64_t sum_new, const ipcomp::RetrievalStats& last,
                    Report& r, const std::string& where) {
  r.check(sum_new == last.bytes_total,
          where + ": sum of bytes_new " + std::to_string(sum_new) +
              " != bytes_total " + std::to_string(last.bytes_total));
}

void TimedSource::mirror(const SourceStats& before) {
  const SourceStats after = base_->stats();
  charge_bytes(after.bytes_read - before.bytes_read);
  for (std::size_t k = before.read_calls; k < after.read_calls; ++k) {
    count_read_call();
  }
  for (std::size_t k = before.coalesced_ranges; k < after.coalesced_ranges;
       ++k) {
    count_coalesced_range();
  }
}

const Bytes& TimedSource::header() {
  const SourceStats before = base_->stats();
  const Bytes& h = base_->header();
  mirror(before);
  return h;
}

Bytes TimedSource::read_segment(SegmentId id) {
  std::vector<Bytes> one = read_many({&id, 1});
  return std::move(one.front());
}

std::vector<Bytes> TimedSource::read_many(std::span<const SegmentId> ids) {
  Span s(tracer_, "io.fetch." + label_, request_);
  const SourceStats before = base_->stats();
  std::vector<Bytes> out = base_->read_many(ids);
  mirror(before);
  return out;
}

}  // namespace perfbench
