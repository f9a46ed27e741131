#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace she::bench::e2e {
namespace {

using server::SheClient;

// mixed_read_write's writer: 500K items/s on a fixed schedule, in
// kFrameKeys frames (61/s).
constexpr double kMixedItemsPerSec = 500'000;

// 20 probes/s under load; 100/s in the otherwise idle probe part of the
// tail, so that 2 s give 200 probes.
constexpr auto kLoadProbeInterval = std::chrono::milliseconds(50);
constexpr auto kTailProbeInterval = std::chrono::milliseconds(10);
// Once the load stops the rings drain in milliseconds; a probe key still
// invisible this long after the window closed was never published.
constexpr auto kDrainGrace = std::chrono::seconds(1);
constexpr auto kPollPause = std::chrono::microseconds(20);
// Probe keys sit far above the generator's key space (< 2^22), so a fresh
// probe key is never in the window unless the filter says so falsely.
constexpr std::uint64_t kProbeKeyBase = std::uint64_t{1} << 44;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Timeline {
  Clock::time_point start;
  Clock::time_point measure_from;
  Clock::time_point end;
  [[nodiscard]] bool measured(Clock::time_point t) const {
    return t >= measure_from && t < end;
  }
};

Timeline make_timeline(double warmup_s, double measure_s) {
  Timeline tl;
  tl.start = Clock::now() + std::chrono::milliseconds(20);
  tl.measure_from = tl.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(warmup_s));
  tl.end = tl.measure_from + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(measure_s));
  return tl;
}

/// The next `n` keys of the pool, wrapping to its start.
std::span<const std::uint64_t> next_keys(std::span<const std::uint64_t> pool,
                                         std::size_t& cursor, std::size_t n) {
  if (cursor + n > pool.size()) cursor = 0;
  const auto keys = pool.subspan(cursor, n);
  cursor += n;
  return keys;
}

/// Report the first few failed requests of the process on stderr.
void log_failure(const char* what) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1, std::memory_order_relaxed) < 10)
    std::fprintf(stderr, "she_bench: request failed: %s\n", what);
}

/// One request whose failure (error status, transport error, short
/// accept) is counted rather than thrown.
template <typename F>
bool attempt(OpStats& st, F&& op) {
  ++st.attempted;
  bool ok = false;
  try {
    ok = op();
    if (!ok) log_failure("insert not fully accepted");
  } catch (const std::exception& e) {
    log_failure(e.what());
  }
  if (!ok) {
    ++st.failed;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // no hot spin
  }
  return ok;
}

/// 45 % frequency, 45 % membership, 5 % cardinality, 5 % top-10 on keys
/// drawn from the pool.
void mixed_query(SheClient& c, Rng& rng, std::span<const std::uint64_t> pool,
                 const Timeline& tl, OpStats& st) {
  const std::uint64_t pick = rng.below(100);
  const std::uint64_t key = pool[rng.below(pool.size())];
  const Clock::time_point t0 = Clock::now();
  const bool ok = attempt(st, [&] {
    if (pick < 45) {
      (void)c.query_frequency(kPipeline, key);
    } else if (pick < 90) {
      (void)c.query_membership(kPipeline, key);
    } else if (pick < 95) {
      (void)c.query_cardinality(kPipeline);
    } else {
      (void)c.query_topk(kPipeline, 10);
    }
    return true;
  });
  if (!ok || !tl.measured(t0)) return;
  ++st.queries;
  (pick < 90 ? st.query_point_us : st.query_agg_us).add(us_between(t0, Clock::now()));
}

void bulk_writer(SheClient& c, std::span<const std::uint64_t> pool,
                 std::size_t cursor, const Timeline& tl, OpStats& st) {
  std::this_thread::sleep_until(tl.start);
  for (Clock::time_point t0 = Clock::now(); t0 < tl.end; t0 = Clock::now()) {
    const auto keys = next_keys(pool, cursor, kFrameKeys);
    if (!attempt(st, [&] { return c.insert_bulk(kPipeline, keys) == keys.size(); }))
      continue;
    if (tl.measured(t0)) {
      st.items += keys.size();
      st.insert_bulk_us.add(us_between(t0, Clock::now()));
    }
  }
}

/// Sends on a fixed schedule whatever the server does; each frame is
/// timed from when it was due, so a stall also delays the frames behind it.
void open_loop_writer(SheClient& c, std::span<const std::uint64_t> pool,
                      std::size_t cursor, const Timeline& tl, OpStats& st) {
  const std::chrono::duration<double> period(kFrameKeys / kMixedItemsPerSec);
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due =
        tl.start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    if (due >= tl.end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const auto keys = next_keys(pool, cursor, kFrameKeys);
    if (!attempt(st, [&] { return c.insert_bulk(kPipeline, keys) == keys.size(); }))
      continue;
    if (tl.measured(due)) {
      st.items += keys.size();
      st.insert_bulk_us.add(us_between(due, Clock::now()));
      st.gen_late_us.add(us_between(due, sent));
    }
  }
}

void query_lane(SheClient& c, std::span<const std::uint64_t> pool, Rng rng,
                const Timeline& tl, OpStats& st) {
  std::this_thread::sleep_until(tl.start);
  while (Clock::now() < tl.end) mixed_query(c, rng, pool, tl, st);
}

/// INSERT one key, then QUERY its frequency; repeat.
void point_lane(SheClient& c, std::span<const std::uint64_t> pool,
                std::size_t cursor, const Timeline& tl, OpStats& st) {
  std::this_thread::sleep_until(tl.start);
  for (Clock::time_point t0 = Clock::now(); t0 < tl.end; t0 = Clock::now()) {
    const std::uint64_t key = next_keys(pool, cursor, 1)[0];
    if (attempt(st, [&] { return c.insert(kPipeline, key) == 1; }) &&
        tl.measured(t0)) {
      ++st.items;
      st.insert_us.add(us_between(t0, Clock::now()));
    }
    const Clock::time_point q0 = Clock::now();
    if (attempt(st, [&] {
          (void)c.query_frequency(kPipeline, key);
          return true;
        }) &&
        tl.measured(q0)) {
      ++st.queries;
      st.query_point_us.add(us_between(q0, Clock::now()));
    }
  }
}

/// Probe keys are never reused within a process, so no probe finds an
/// earlier probe's key.
std::uint64_t fresh_probe_key() {
  static std::uint64_t next = kProbeKeyBase;
  return next++;
}

/// Ack-to-visible probes on one connection.  Probes are issued on a fixed
/// schedule whatever the earlier ones are doing: a fresh key that does not already
/// read true is inserted, and every inserted key is polled for membership
/// until it reads true.  Keys still pending when the window closes are
/// polled on while the stopped load drains, for up to kDrainGrace.
class Prober {
 public:
  Prober(SheClient& c, OpStats& st) : c_(c), st_(st) {}

  [[nodiscard]] bool pending() const { return !pending_.empty(); }

  void issue(std::uint64_t key) {
    ++st_.attempted;
    try {
      if (member(key)) {
        ++st_.probes_skipped;
        return;
      }
      const Clock::time_point sent = Clock::now();
      if (c_.insert(kPipeline, key) != 1) {
        fail("probe insert not accepted");
        return;
      }
      const Clock::time_point ack = Clock::now();
      st_.probe_insert_us.add(us_between(sent, ack));
      pending_.push_back({key, ack});
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  /// One membership query per pending key.
  void poll() {
    std::erase_if(pending_, [&](const Pending& p) {
      try {
        if (!member(p.key)) return false;
        st_.visibility_ms.add(us_between(p.ack, Clock::now()) / 1000.0);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      return true;
    });
  }

  /// A key still invisible kDrainGrace after the load stopped was applied and
  /// aged out of the window between two snapshot publishes, so no reader
  /// ever saw it: counted as unseen, not as a failed request.
  void give_up() {
    st_.probes_unseen += pending_.size();
    pending_.clear();
  }

 private:
  struct Pending {
    std::uint64_t key;
    Clock::time_point ack;
  };

  bool member(std::uint64_t key) {
    const Clock::time_point t0 = Clock::now();
    const bool seen = c_.query_membership(kPipeline, key);
    st_.probe_query_us.add(us_between(t0, Clock::now()));
    return seen;
  }

  void fail(const char* what) {
    log_failure(what);
    ++st_.failed;
  }

  SheClient& c_;
  OpStats& st_;
  std::vector<Pending> pending_;
};

/// The calling thread's part of a phase: from the start of the measured
/// window to its end, a tick every `interval` runs the between_probes hook
/// and, when `probing`, issues a probe; pending probes are polled between
/// ticks.
void probe_loop(SheClient& c, const Timeline& tl, Clock::duration interval,
                bool probing, const PhaseHooks& hooks, OpStats& st) {
  std::this_thread::sleep_until(tl.measure_from);
  if (hooks.at_measure_start) hooks.at_measure_start();
  Prober prober(c, st);
  for (std::uint64_t i = 0;;) {
    const Clock::time_point due = tl.measure_from + interval * i;
    const Clock::time_point now = Clock::now();
    if (due < tl.end && now >= due) {
      if (probing) {
        st.gen_late_us.add(us_between(due, now));
        prober.issue(fresh_probe_key());
      }
      ++i;
      if (hooks.between_probes) hooks.between_probes();
    } else if (prober.pending()) {
      if (now > tl.end + kDrainGrace) {
        prober.give_up();
      } else {
        prober.poll();
        std::this_thread::sleep_for(kPollPause);
      }
    } else if (due < tl.end) {
      std::this_thread::sleep_until(due);
    } else {
      break;
    }
  }
}

/// Runs `body(stats)` on a thread, turning an escaped exception into one
/// counted failure instead of std::terminate.
std::jthread lane(OpStats& st, std::function<void(OpStats&)> body) {
  return std::jthread([&st, body = std::move(body)] {
    try {
      body(st);
    } catch (const std::exception& e) {
      log_failure(e.what());
      ++st.attempted;
      ++st.failed;
    }
  });
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string pipeline_spec(const Workload& w, std::size_t producers) {
  std::string spec = "window=64K memory=1M shards=2 producers=" +
                     std::to_string(producers) + " queue=8192";
  spec += w.wal ? " wal=fsync wal-fsync-bytes=1M checkpoint-every=4M"
                : " wal=off checkpoint-every=1G";
  return spec;
}

void OpStats::merge(const OpStats& o) {
  insert_bulk_us.merge(o.insert_bulk_us);
  insert_us.merge(o.insert_us);
  probe_insert_us.merge(o.probe_insert_us);
  query_point_us.merge(o.query_point_us);
  query_agg_us.merge(o.query_agg_us);
  probe_query_us.merge(o.probe_query_us);
  gen_late_us.merge(o.gen_late_us);
  visibility_ms.merge(o.visibility_ms);
  items += o.items;
  queries += o.queries;
  probes_skipped += o.probes_skipped;
  probes_unseen += o.probes_unseen;
  attempted += o.attempted;
  failed += o.failed;
}

bool insert_frames(SheClient& client, const std::string& pipeline,
                   std::span<const std::uint64_t> keys, OpStats& stats) {
  bool ok = true;
  for (std::size_t i = 0; i < keys.size(); i += kFrameKeys) {
    const auto frame = keys.subspan(i, std::min(kFrameKeys, keys.size() - i));
    ok &= attempt(stats, [&] { return client.insert_bulk(pipeline, frame) == frame.size(); });
  }
  return ok;
}

/// Runs `lanes` load threads, each with its own connection and the body
/// `make(i, client)` returns, while the calling thread runs `on_main`.
OpStats run_lanes(std::uint16_t port, std::size_t lanes,
                  const std::function<std::function<void(OpStats&)>(std::size_t, SheClient&)>& make,
                  const std::function<void(OpStats&)>& on_main) {
  std::vector<SheClient> clients;
  for (std::size_t i = 0; i < lanes; ++i) clients.emplace_back("127.0.0.1", port);
  std::vector<OpStats> stats(lanes + 1);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < lanes; ++i) threads.push_back(lane(stats[i], make(i, clients[i])));
    if (on_main) on_main(stats[lanes]);
  }
  OpStats all;
  for (const OpStats& s : stats) all.merge(s);
  return all;
}

OpStats run_measured_phase(std::uint16_t port, SheClient& probe,
                           const PhasePlan& plan, const PhaseHooks& hooks) {
  const Kind kind = plan.workload->kind;
  const bool bulk = no_readers(*plan.workload);
  const std::size_t lanes = kind == Kind::kPointOps ? 2 : 3;
  const Timeline tl = make_timeline(plan.warmup_s, plan.measure_s);
  const std::span<const std::uint64_t> pool = plan.pool;
  return run_lanes(
      port, lanes,
      [&](std::size_t i, SheClient& c) -> std::function<void(OpStats&)> {
        // Writers start at different points of the pool, past the prefill.
        const std::size_t cursor = (i + 1) * pool.size() / (lanes + 1);
        if (bulk) return [&c, pool, cursor, &tl](OpStats& st) { bulk_writer(c, pool, cursor, tl, st); };
        if (kind == Kind::kPointOps)
          return [&c, pool, cursor, &tl](OpStats& st) { point_lane(c, pool, cursor, tl, st); };
        if (i == 0)
          return [&c, pool, cursor, &tl](OpStats& st) { open_loop_writer(c, pool, cursor, tl, st); };
        const Rng rng(plan.seed * 0x9e3779b97f4a7c15ULL + i);
        return [&c, pool, rng, &tl](OpStats& st) { query_lane(c, pool, rng, tl, st); };
      },
      // The bulk workloads have no readers: no probes in their window.
      [&](OpStats& st) { probe_loop(probe, tl, kLoadProbeInterval, !bulk, hooks, st); });
}

OpStats run_tail(std::uint16_t port, SheClient& probe, const PhasePlan& plan,
                 double query_s, double probe_s, const std::function<void()>& tick) {
  const PhaseHooks hooks{nullptr, tick};
  constexpr std::size_t kLanes = 2;
  const std::span<const std::uint64_t> pool = plan.pool;
  const Timeline reads = make_timeline(0, query_s);
  OpStats all = run_lanes(
      port, kLanes,
      [&](std::size_t i, SheClient& c) -> std::function<void(OpStats&)> {
        const Rng rng(plan.seed * 0xbf58476d1ce4e5b9ULL + i);
        return [&c, pool, rng, &reads](OpStats& st) { query_lane(c, pool, rng, reads, st); };
      },
      [&](OpStats& st) { probe_loop(probe, reads, kLoadProbeInterval, false, hooks, st); });
  probe_loop(probe, make_timeline(0, probe_s), kTailProbeInterval, true, hooks, all);
  return all;
}

}  // namespace she::bench::e2e
