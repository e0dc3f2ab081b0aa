#include "util/fault.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace ipcomp {

std::shared_ptr<FaultPlan> FaultPlan::random(std::uint64_t seed,
                                             const Profile& profile) {
  auto plan = std::make_shared<FaultPlan>(seed);
  LockGuard lock(plan->mu_);
  plan->randomized_ = true;
  plan->profile_ = profile;
  return plan;
}

FaultPlan& FaultPlan::reset_at(std::uint64_t nth_op) {
  LockGuard lock(mu_);
  slot(nth_op).reset = true;
  return *this;
}

FaultPlan& FaultPlan::torn_at(std::uint64_t nth_op) {
  LockGuard lock(mu_);
  slot(nth_op).torn = true;
  return *this;
}

FaultPlan& FaultPlan::eintr_at(std::uint64_t nth_op, unsigned times) {
  LockGuard lock(mu_);
  // Each interrupted attempt retries as the next ordinal, so a storm of
  // `times` interrupts occupies `times` consecutive slots.
  for (unsigned k = 0; k < times; ++k) slot(nth_op + k).eintr = true;
  return *this;
}

FaultPlan& FaultPlan::flip_at(std::uint64_t nth_op, std::size_t byte,
                              unsigned bit) {
  LockGuard lock(mu_);
  WireFault& f = slot(nth_op);
  f.flip = true;
  f.flip_byte = byte;
  f.flip_bit = bit & 7u;
  return *this;
}

FaultPlan& FaultPlan::delay_at(std::uint64_t nth_op, unsigned ms) {
  LockGuard lock(mu_);
  slot(nth_op).delay_ms = ms;
  return *this;
}

FaultPlan& FaultPlan::fail_reads_after(std::uint64_t n) {
  LockGuard lock(mu_);
  fail_reads_after_ = n;
  return *this;
}

FaultPlan& FaultPlan::corrupt_read_at(std::uint64_t nth_payload,
                                      std::size_t byte, unsigned bit) {
  LockGuard lock(mu_);
  read_faults_[nth_payload] = ReadFault{true, byte, bit & 7u};
  return *this;
}

FaultPlan::WireFault& FaultPlan::slot(std::uint64_t n) {
  return wire_faults_[n];
}

bool FaultPlan::drop(FaultOp op) {
  unsigned delay_ms = 0;
  bool fire = false;
  {
    LockGuard lock(mu_);
    const std::uint64_t n = next_op_++;
    ++ops_;
    if (randomized_) {
      const bool covered =
          op == FaultOp::kRead ? profile_.on_reads : profile_.on_writes;
      if (covered) {
        WireFault& f = slot(n);
        if (rng_.uniform() < profile_.reset_p) f.reset = true;
        if (rng_.uniform() < profile_.torn_p) f.torn = true;
        if (rng_.uniform() < profile_.eintr_p) f.eintr = 2;
        if (rng_.uniform() < profile_.delay_p) f.delay_ms = profile_.delay_ms;
      }
    }
    auto it = wire_faults_.find(n);
    if (it != wire_faults_.end()) {
      delay_ms = it->second.delay_ms;
      it->second.delay_ms = 0;
      if (it->second.reset) {
        it->second.reset = false;  // one reset per slot
        ++resets_;
        fire = true;
      }
    }
  }
  // Delay spikes sleep outside the lock so a stalled op can't serialize the
  // whole plan.
  if (delay_ms != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return fire;
}

std::size_t FaultPlan::clamp(FaultOp, std::size_t want) {
  LockGuard lock(mu_);
  if (next_op_ == 0) return want;  // no drop() yet: nothing scheduled
  auto it = wire_faults_.find(next_op_ - 1);
  if (it == wire_faults_.end() || want == 0) return want;
  if (it->second.eintr) {
    it->second.eintr = false;
    ++eintrs_;
    return 0;
  }
  if (it->second.torn) {
    it->second.torn = false;
    ++torn_;
    return 1;
  }
  return want;
}

void FaultPlan::corrupt(FaultOp op, std::uint8_t* data, std::size_t len) {
  if (op != FaultOp::kRead) return;
  LockGuard lock(mu_);
  if (next_op_ == 0) return;
  auto it = wire_faults_.find(next_op_ - 1);
  if (it == wire_faults_.end() || !it->second.flip || len == 0) return;
  const std::size_t byte = it->second.flip_byte;
  const unsigned bit = it->second.flip_bit;
  it->second.flip = false;
  if (byte >= len) {
    // The target byte is past this chunk: the flip addresses the byte
    // *stream* received from its ordinal onward, so carry the remainder
    // into the next raw read (short reads must not silently retarget the
    // flip onto framing bytes).  Direct map access, not slot(): a deferral
    // must never roll the randomized profile's dice for that ordinal.
    WireFault& carry = wire_faults_[next_op_];
    carry.flip = true;
    carry.flip_byte = byte - len;
    carry.flip_bit = bit;
    return;
  }
  data[byte] ^= static_cast<std::uint8_t>(1u << bit);
  ++flips_;
}

std::uint64_t FaultPlan::io_ops() const {
  LockGuard lock(mu_);
  return ops_;
}

std::uint64_t FaultPlan::resets() const {
  LockGuard lock(mu_);
  return resets_;
}

std::uint64_t FaultPlan::torn() const {
  LockGuard lock(mu_);
  return torn_;
}

std::uint64_t FaultPlan::eintrs() const {
  LockGuard lock(mu_);
  return eintrs_;
}

std::uint64_t FaultPlan::flips() const {
  LockGuard lock(mu_);
  return flips_;
}

std::uint64_t FaultPlan::injected() const {
  LockGuard lock(mu_);
  return resets_ + torn_ + eintrs_ + flips_;
}

// ---- FaultySource ---------------------------------------------------------

void FaultySource::mirror(const SourceStats& before) {
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

const Bytes& FaultySource::header() {
  const SourceStats before = base_->stats();
  const Bytes& h = base_->header();
  mirror(before);
  return h;
}

std::vector<Bytes> FaultySource::read_many(std::span<const SegmentId> ids) {
  {
    LockGuard lock(plan_->mu_);
    if (plan_->source_reads_ >= plan_->fail_reads_after_) {
      throw std::runtime_error("fault: injected read failure");
    }
  }
  const SourceStats before = base_->stats();
  std::vector<Bytes> out = base_->read_many(ids);
  mirror(before);
  LockGuard lock(plan_->mu_);
  for (Bytes& payload : out) {
    const std::uint64_t n = plan_->source_reads_++;
    auto it = plan_->read_faults_.find(n);
    if (it == plan_->read_faults_.end() || !it->second.flip ||
        payload.empty()) {
      continue;
    }
    it->second.flip = false;
    const std::size_t byte =
        it->second.byte < payload.size() ? it->second.byte : payload.size() - 1;
    payload[byte] ^= static_cast<std::uint8_t>(1u << it->second.bit);
    ++plan_->flips_;
  }
  return out;
}

}  // namespace ipcomp
