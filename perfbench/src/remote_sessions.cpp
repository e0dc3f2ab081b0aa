// remote-sessions: closed-loop clients running whole progressive sessions
// against an in-process daemon on loopback TCP.
//
// Exercises net framing and round trips plus the serve tier's segment cache
// and I/O pool; the server never decodes.  The segment cache holds about
// half the archive, so both cache hits and physical reads happen.  Closed
// loop: a progressive analyst waits for each refinement before asking for
// the next.  Each client decodes single-threaded.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "core/compressor.hpp"
#include "ladder.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ipcomp;

namespace {

constexpr unsigned kClients = 3;
constexpr std::size_t kMinRequests = 100;
constexpr double kMaxWindowFactor = 4.0;  // give up on kMinRequests after this

/// One remote request as the client saw it.
struct RequestRecord {
  double plan_s = 0.0;
  double exec_s = 0.0;
  std::uint64_t bytes_new = 0;
};

/// One session: which schedule entry it ran and what came back.
struct SessionRecord {
  unsigned client = 0;
  std::uint64_t index = 0;
  double open_s = 0.0;
  std::vector<RequestRecord> requests;  // completed ones, in order
  bool complete = false;
  std::uint64_t final_hash = 0;
  std::uint64_t wire_payload = 0;
  std::uint64_t retries = 0;
  std::uint64_t recoveries = 0;
};

struct Window {
  std::vector<SessionRecord> sessions;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t requests() const {
    std::size_t n = 0;
    for (const SessionRecord& s : sessions) n += s.requests.size();
    return n;
  }
};

struct Setup {
  NdArray<double> field;
  double range = 0.0;
  Bytes archive;
  std::size_t archive_bytes = 0;
  std::unique_ptr<net::Server> server;
};

/// Runs the clients until `seconds` have passed and at least kMinRequests
/// requests completed; a client finishes its current session before it
/// stops.
Window run_window(const Setup& su, std::uint64_t seed, double seconds,
                  Tracer* tracer, std::uint64_t& next_session) {
  Window w;
  std::mutex mu;  // guards w.sessions
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::uint64_t> attempted{0}, failed{0};
  const std::string addr = su.server->address();
  const Dims dims = su.field.dims();
  std::atomic<std::uint64_t> session_ids{next_session};

  auto client = [&](unsigned c) {
#if defined(_OPENMP)
    omp_set_num_threads(1);
#endif
    std::uint64_t index = client_phase(seed, c);
    while (!stop.load()) {
      SessionRecord rec;
      rec.client = c;
      rec.index = index++;
      const std::uint64_t sid = session_ids.fetch_add(1);
      const std::vector<Step> ladder =
          session_ladder(dims, su.range, su.archive_bytes, seed, c, rec.index);
      Span session(tracer, "session", sid);
      try {
        attempted.fetch_add(1);  // the first request (it needs the open)
        std::unique_ptr<net::RemoteReader<double>> remote;
        {
          Span s(tracer, "net.open", sid);
          remote = std::make_unique<net::RemoteReader<double>>(addr, "bench");
          rec.open_s = s.close();
        }
        for (std::size_t k = 0; k < ladder.size(); ++k) {
          if (k > 0) attempted.fetch_add(1);
          RequestRecord q;
          RetrievalPlan plan;
          {
            Span s(tracer, "net.plan", sid);
            plan = remote->plan(ladder[k].request);
            q.plan_s = s.close();
          }
          {
            Span s(tracer, "net.execute", sid);
            q.bytes_new = remote->execute(plan).bytes_new;
            q.exec_s = s.close();
          }
          rec.requests.push_back(q);
          completed.fetch_add(1);
        }
        rec.final_hash = hash_values(remote->data());
        rec.wire_payload = remote->archive().wire_payload_bytes();
        rec.retries = remote->retries();
        rec.recoveries = remote->recoveries();
        Span s(tracer, "net.close", sid);
        remote->archive().close();
        rec.complete = true;
      } catch (const std::exception& e) {
        failed.fetch_add(1);
        std::fprintf(stderr, "remote-sessions: client %u session %llu: %s\n", c,
                     static_cast<unsigned long long>(rec.index), e.what());
      }
      session.close();
      std::lock_guard lock(mu);
      w.sessions.push_back(std::move(rec));
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  while (since(t0) < seconds ||
         (completed.load() < kMinRequests && since(t0) < kMaxWindowFactor * seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  w.wall_s = since(t0);
  w.attempted = attempted.load();
  w.failed = failed.load();
  next_session = session_ids.load();
  return w;
}

/// Replays every complete session on a local reader over the same archive:
/// each step passes the ladder oracle, bytes_new match the remote side, the
/// final reconstruction is byte-identical, and (absent retries) the payload
/// bytes that crossed the wire equal the bytes retrieved minus the open
/// cost.  Returns the local execute seconds per request, in session order.
std::vector<double> replay(const Setup& su, const std::string& path,
                           std::uint64_t seed, const Window& w, Report& r) {
  std::vector<std::vector<double>> decode(w.sessions.size());
  std::vector<Report> checks(w.sessions.size());
  parallel_for_ex(0, w.sessions.size(), [&](std::size_t i) {
    const SessionRecord& rec = w.sessions[i];
    if (!rec.complete) return;
    Report& rr = checks[i];
    FileSource src(path);
    ProgressiveReader<double> reader(src);
    const std::size_t open_cost = src.stats().bytes_read;
    const std::vector<Step> ladder = session_ladder(
        su.field.dims(), su.range, su.archive_bytes, seed, rec.client, rec.index);
    std::uint64_t sum_new = 0;
    RetrievalStats last;
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      const StepResult res = run_step(reader, ladder[k], su.field, rr, nullptr, 0);
      decode[i].push_back(res.exec_s);
      rr.check(res.stats.bytes_new == rec.requests[k].bytes_new,
               "remote " + ladder[k].label + " bytes_new differs from local replay");
      sum_new += res.stats.bytes_new;
      last = res.stats;
    }
    check_byte_sum(sum_new, last, rr, "remote session replay");
    rr.check(hash_values(reader.data()) == rec.final_hash,
             "remote reconstruction is not byte-identical to the local replay");
    if (rec.retries == 0) {
      rr.check(rec.wire_payload == last.bytes_total - open_cost,
               "wire payload bytes differ from the bytes the replay retrieved");
    }
  }, /*grain=*/1);
  std::vector<double> out;
  for (std::size_t i = 0; i < w.sessions.size(); ++i) {
    for (const std::string& v : checks[i].violations) {
      r.check(false, "session " + std::to_string(i) + ": " + v);
    }
    out.insert(out.end(), decode[i].begin(), decode[i].end());
  }
  return out;
}

std::vector<double> latencies(const Window& w) {
  std::vector<double> v;
  for (const SessionRecord& s : w.sessions) {
    for (const RequestRecord& q : s.requests) v.push_back(q.plan_s + q.exec_s);
  }
  return v;
}

}  // namespace

Report run_remote_sessions(const RunConfig& cfg) {
  Report r;
  const Dims dims{128, 128, 128};
  Options opt;
  opt.block_side = 32;
  opt.error_bound = 1e-6;
  const ScratchFile file{cfg.out_dir + "/remote-sessions-" + std::to_string(getpid()) +
                 ".ipc"};

  Setup su;
  // A server's stop() waits out its handlers' accept timeout, so stopping
  // the previous repeat's server is teardown, not setup.
  auto teardown = [&] {
    su.server->stop();
    su.server.reset();
  };
  r.set("setup_s", median_setup([&] {
    su.field = make_field(Field::kVelocityX, dims, cfg.seed);
    su.range = field_range(su.field);
    su.archive = compress(su.field.const_view(), opt);
    file.write(su.archive);
    su.archive_bytes = su.archive.size();
    net::ServerConfig sc;
    sc.listen = "127.0.0.1:0";
    sc.workers = kClients;
    sc.serve.cache_capacity_bytes = su.archive_bytes / 2;
    su.server = std::make_unique<net::Server>(sc);
    su.server->export_file("bench", file.path);
    su.server->start();
  }, teardown));
  const std::size_t field_bytes = su.field.count() * sizeof(double);
  const double field_mb = static_cast<double>(field_bytes) / (1024.0 * 1024.0);

  std::uint64_t next_session = 1;
  const Window w = run_window(su, cfg.seed, cfg.trace ? cfg.seconds / 2 : cfg.seconds,
                              nullptr, next_session);
  r.attempted += w.attempted;
  r.failed += w.failed;
  std::vector<double> sorted_lat = latencies(w);
  std::sort(sorted_lat.begin(), sorted_lat.end());
  const Summary lat = summarize(sorted_lat);
  const double remote_p90_ms = samples_beyond(sorted_lat.size(), 900) >= kMinBeyond
                                   ? percentile_sorted(sorted_lat, 900) * 1e3
                                   : 0.0;
  std::vector<double> first;
  for (const SessionRecord& s : w.sessions) {
    if (!s.requests.empty()) {
      first.push_back(s.open_s + s.requests[0].plan_s + s.requests[0].exec_s);
    }
  }
  const Summary fv = summarize(first);
  const double req_per_s = static_cast<double>(w.requests()) / w.wall_s;
  const double steps = 4.0;  // requests per session (session_ladder)
  r.set("op_p50_ms", lat.median * 1e3);
  r.set("first_result_ms", fv.median * 1e3);
  r.set("throughput_mbps", req_per_s / steps * field_mb);
  r.set("compression_ratio",
        static_cast<double>(field_bytes) / static_cast<double>(su.archive_bytes));
  {
    // The local Fig. 6 fraction on this archive (bitrate 1.0 -> eb 1e-4).
    MemorySource src(su.archive);
    ProgressiveReader<double> reader(src);
    const std::vector<Step> ladder = local_ladder(dims, su.range, cfg.seed);
    run_step(reader, ladder[0], su.field, r, nullptr, 0);
    const StepResult res = run_step(reader, ladder[1], su.field, r, nullptr, 0);
    r.set("fetch_frac_eb1e-4", static_cast<double>(res.stats.bytes_total) /
                                   static_cast<double>(su.archive_bytes));
  }
  replay(su, file.path, cfg.seed, w, r);
  if (w.requests() < kMinRequests) {
    r.note("remote-sessions: only " + std::to_string(w.requests()) +
           " requests completed; the p90 has fewer than 10 samples beyond it");
  }

  r.note("remote-sessions: 128^3 f64 VelocityX + seeded noise, block 32, archive " +
         std::to_string(su.archive_bytes) + " bytes, cache " +
         std::to_string(su.archive_bytes / 2) + " bytes, " +
         std::to_string(kClients) + " closed-loop clients");
  r.figure("remote_req_per_s", req_per_s, "1/s",
           std::to_string(w.requests()) + " requests, " +
               std::to_string(w.sessions.size()) + " sessions");
  r.figure("remote_p50_ms", lat.median * 1e3, "ms", describe(lat, 1e3, "ms"));
  r.figure("remote_p90_ms", remote_p90_ms, "ms",
           remote_p90_ms > 0 ? "n=" + std::to_string(lat.n)
                             : "fewer than 10 samples beyond p90");
  r.figure("first_result_ms", fv.median * 1e3, "ms",
           "open + first request; " + describe(fv, 1e3, "ms"));

  if (!cfg.trace) return r;

  Tracer tracer;
  const net::ServeStats before = su.server->stats();
  const Window tw = run_window(su, cfg.seed, cfg.seconds / 2, &tracer, next_session);
  const net::ServeStats after = su.server->stats();
  r.attempted += tw.attempted;
  r.failed += tw.failed;
  const std::vector<double> tdecode = replay(su, file.path, cfg.seed, tw, r);
  std::vector<double> exec, wait;
  for (const SessionRecord& s : tw.sessions) {
    if (!s.complete) continue;  // replay() decodes complete sessions only
    for (const RequestRecord& q : s.requests) exec.push_back(q.exec_s);
  }
  for (std::size_t i = 0; i < exec.size() && i < tdecode.size(); ++i) {
    wait.push_back(exec[i] - tdecode[i]);
  }
  std::uint64_t retries = 0, recoveries = 0;
  for (const SessionRecord& s : tw.sessions) {
    retries += s.retries;
    recoveries += s.recoveries;
  }
  const double treq = static_cast<double>(tw.requests());
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double payload = delta(before.payload_bytes_sent, after.payload_bytes_sent);
  const double wire = delta(before.wire_bytes_out, after.wire_bytes_out);
  r.set("net.open_ms", median(tracer.durations("net.open")) * 1e3);
  r.set("net.plan_ms", median(tracer.durations("net.plan")) * 1e3);
  r.set("net.execute_ms", median(exec) * 1e3);
  r.set("client.decode_ms", median(tdecode) * 1e3);
  r.set("net.wait_ms", median(wait) * 1e3);
  r.set("net.retries", static_cast<double>(retries));
  r.set("net.recoveries", static_cast<double>(recoveries));
  r.set("remote.req_per_s", req_per_s);
  r.set("remote.p90_ms", remote_p90_ms);
  r.set("net.frames_in", delta(before.frames_in, after.frames_in));
  r.set("net.frames_out", delta(before.frames_out, after.frames_out));
  r.set("net.frames_per_req",
        treq > 0 ? delta(before.frames_in, after.frames_in) / treq : 0.0);
  r.set("net.wire_bytes_out", wire);
  r.set("net.payload_bytes_sent", payload);
  r.set("net.wire_over_logical", payload > 0 ? wire / payload : 0.0);
  r.set("net.errors_sent", delta(before.errors_sent, after.errors_sent));
  r.set("net.slow_client_evictions",
        delta(before.slow_client_evictions, after.slow_client_evictions));
  const double hits = delta(before.cache.hits, after.cache.hits);
  const double misses = delta(before.cache.misses, after.cache.misses);
  r.set("serve.cache_hits", hits);
  r.set("serve.cache_misses", misses);
  r.set("serve.cache_evictions", delta(before.cache.evictions, after.cache.evictions));
  r.set("serve.cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  r.set("serve.physical_read_calls",
        delta(before.physical_read_calls, after.physical_read_calls));
  r.set("serve.physical_bytes_read",
        delta(before.physical_bytes_read, after.physical_bytes_read));
  r.set("trace.overhead", median(latencies(tw)) / lat.median);
  r.set("trace.spans", static_cast<double>(tracer.spans().size()));
  const std::string dump = cfg.out_dir + "/spans-remote-sessions-seed" +
                           std::to_string(cfg.seed) + ".json";
  tracer.dump(dump);
  r.note("  traced window: " + std::to_string(tw.requests()) +
         " requests, spans written to " + dump);
  su.server->stop();
  return r;
}

}  // namespace perfbench
