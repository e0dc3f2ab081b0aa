#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::uint64_t t_current = 0;

unsigned thread_ordinal() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned mine = next.fetch_add(1);
  return mine;
}

}  // namespace

double covered_seconds(double lo, double hi,
                       std::vector<std::pair<double, double>> intervals) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

std::map<std::uint64_t, double> self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::uint64_t, double> self;
  for (const SpanRecord& s : spans) {
    auto it = children.find(s.id);
    const double kids =
        it == children.end() ? 0.0 : covered_seconds(s.start, s.end, it->second);
    self[s.id] = (s.end - s.start) - kids;
  }
  return self;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

void Tracer::record(SpanRecord r) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(r));
}

std::uint64_t Tracer::current() { return t_current; }
void Tracer::set_current(std::uint64_t id) { t_current = id; }

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::dump(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const auto self = self_seconds(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("perfbench: cannot write " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"thread\":%u,\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"self_us\":%.3f}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 s.start * 1e6, s.end * 1e6, self.at(s.id) * 1e6,
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: short write to " + path);
  }
}

Span::Span(Tracer* tracer, std::string name, std::uint64_t request,
           std::uint64_t parent)
    : tracer_(tracer), t0_(Tracer::Clock::now()) {
  if (!tracer_) return;
  rec_.name = std::move(name);
  rec_.id = tracer_->next_id();
  rec_.parent = parent == kInherit ? Tracer::current() : parent;
  rec_.request = request;
  rec_.thread = thread_ordinal();
  rec_.start = tracer_->now();
  saved_current_ = Tracer::current();
  Tracer::set_current(rec_.id);
}

double Span::close() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = std::chrono::duration<double>(Tracer::Clock::now() - t0_).count();
  if (tracer_) {
    rec_.end = tracer_->now();
    Tracer::set_current(saved_current_);
    tracer_->record(std::move(rec_));
  }
  return seconds_;
}

}  // namespace perfbench
