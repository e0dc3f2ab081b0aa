// One retrieval step on a local reader, timed call by call, with the
// correctness oracle applied after the timed calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/progressive_reader.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Relative slack on "measured L-inf <= guaranteed_error", the same the
/// library's tests allow for floating-point rounding of the reconstruction.
inline constexpr double kGuaranteeSlack = 1e-9;

struct StepResult {
  double plan_s = 0.0;
  double exec_s = 0.0;
  ipcomp::RetrievalPlan plan;
  ipcomp::RetrievalStats stats;
  double linf = 0.0;
};

/// plan() then execute() one step (spans progressive_reader.plan.<label>
/// and progressive_reader.execute.<label> when traced), then checks, outside
/// the timed calls: the plan's bytes_new equals the executed bytes_new, and
/// the measured L-inf error (over the request's region, if any) is within
/// the reported guarantee.
StepResult run_step(ipcomp::ProgressiveReader<double>& reader, const Step& step,
                    const ipcomp::NdArray<double>& original, Report& r,
                    Tracer* tracer, std::uint64_t request);

/// Checks that the bytes_new of a request sequence sum to its bytes_total.
void check_byte_sum(std::uint64_t sum_new, const ipcomp::RetrievalStats& last,
                    Report& r, const std::string& where);

/// SegmentSource decorator owned by the benchmark: times every read_many
/// (span io.fetch.<label>, checksum verification included) and mirrors the
/// wrapped source's counters so stats() reads the same through it.
class TimedSource final : public ipcomp::SegmentSource {
 public:
  TimedSource(std::unique_ptr<ipcomp::SegmentSource> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  /// Step label and request id the next fetches are charged to.
  void set_step(std::string label, std::uint64_t request) {
    label_ = std::move(label);
    request_ = request;
  }

  const ipcomp::Bytes& header() override;
  ipcomp::Bytes read_segment(ipcomp::SegmentId id) override;
  std::vector<ipcomp::Bytes> read_many(
      std::span<const ipcomp::SegmentId> ids) override;
  bool has_segment(ipcomp::SegmentId id) const override {
    return base_->has_segment(id);
  }
  std::size_t segment_size(ipcomp::SegmentId id) const override {
    return base_->segment_size(id);
  }
  std::vector<ipcomp::SegmentId> segment_ids() const override {
    return base_->segment_ids();
  }
  std::uint32_t version() const override { return base_->version(); }
  std::optional<std::uint64_t> segment_checksum(
      ipcomp::SegmentId id) const override {
    return base_->segment_checksum(id);
  }
  std::size_t total_size() const override { return base_->total_size(); }

 private:
  void mirror(const ipcomp::SourceStats& before);

  std::unique_ptr<ipcomp::SegmentSource> base_;
  Tracer* tracer_;
  std::string label_;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
