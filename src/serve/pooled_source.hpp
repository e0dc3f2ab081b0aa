// Async batched I/O decorator for the multi-tenant serve layer.
//
// A PooledSource puts a small worker thread-pool behind read_many(): callers
// (the execute() paths of many concurrent Sessions) enqueue their segment
// batches and block; a worker drains *every* batch queued at that moment,
// merges them into one deduplicated id list, and issues a single base
// read_many — so the in-flight demand of N clients reaches FileSource as one
// sorted, offset-coalesced sweep instead of N interleaved seek storms, and a
// segment wanted by several callers at once is fetched exactly once.
// Payloads are handed back to each caller in its own request order (moved
// when it is the sole requester, copied when the fetch was shared).
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "io/archive.hpp"
#include "util/sync.hpp"

namespace ipcomp {

/// Thread contract: internally-synchronized — read_segment/read_many/header
/// and the const queries are safe from any thread; that is the point of the
/// class.  The decorated base source must allow concurrent read_many calls
/// (MemorySource and FileSource both do; see io/archive.hpp) when the pool
/// has more than one worker.  The base must outlive the pool.
///
/// Accounting: this source's stats() count its *own* interface — bytes
/// delivered to callers and one read_call per merged dispatch — so
/// dispatches <= caller batches measures the merging win; the base source's
/// stats() keep counting physical reads and coalesced ranges.
class PooledSource final : public SegmentSource {
 public:
  /// `workers` is clamped to at least 1.
  explicit PooledSource(SegmentSource& base, unsigned workers = 2);
  /// Drains every queued batch, then joins the workers.
  ~PooledSource() override;
  PooledSource(const PooledSource&) = delete;
  PooledSource& operator=(const PooledSource&) = delete;

  const Bytes& header() override IPCOMP_EXCLUDES(mu_);
  std::vector<Bytes> read_many(std::span<const SegmentId> ids) override
      IPCOMP_EXCLUDES(mu_);
  bool has_segment(SegmentId id) const override { return base_.has_segment(id); }
  std::size_t segment_size(SegmentId id) const override {
    return base_.segment_size(id);
  }
  std::vector<SegmentId> segment_ids() const override { return base_.segment_ids(); }
  std::uint32_t version() const override { return base_.version(); }
  std::optional<std::uint64_t> segment_checksum(SegmentId id) const override {
    return base_.segment_checksum(id);
  }
  std::size_t total_size() const override { return base_.total_size(); }

 private:
  /// One caller's in-flight batch; lives on the caller's stack, so the queue
  /// holds raw pointers and the caller cannot return before done.
  struct Batch {
    std::span<const SegmentId> ids;
    std::vector<Bytes> out;
    std::exception_ptr error;
    bool done = false;
  };

  void worker_loop();

  SegmentSource& base_;
  Mutex mu_;
  CondVar work_cv_;  // workers: queue_ non-empty or stop_
  CondVar done_cv_;  // callers: their Batch::done flipped
  std::vector<Batch*> queue_ IPCOMP_GUARDED_BY(mu_);
  bool stop_ IPCOMP_GUARDED_BY(mu_) = false;
  bool header_charged_ IPCOMP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace ipcomp
