// Failover soak (DESIGN.md §15, acceptance harness).
//
// Zipfian small-shape traffic at a moderate fraction of measured
// capacity against a multi-shard service while a fault scheduler walks
// shards through quarantine/revive cycles — including one
// majority-quarantine window that must enter and exit brownout — and
// fires hedge bursts (a stuffed home lane under kHigh requests with
// deadline slack) so the hedged-execution path runs against real
// contention. Gates:
//   - zero lost tickets: every submitted ticket reaches a terminal and
//     is classified; queued == in_flight == 0 after drain; the
//     exactly-once terminal identity holds
//     (completed + rejected + evicted + cancellations +
//      deadline_misses == submitted);
//   - zero unexpected terminals: ok, kOverloaded / kShuttingDown
//     (refused), kCancelled / kDeadlineExceeded (stopped) only — no
//     faults are injected, so nothing else may surface;
//   - zero late terminals: every admitted request reaches a terminal
//     within 2x its deadline plus a fixed scheduling slack, even while
//     its home shard is being drained out from under it;
//   - healthy-shard goodput: completions/s over the fault phase
//     (brownout window excluded — shedding there is the contract, not a
//     regression) stays >= --goodput-frac (default 0.9) of the
//     steady-state phase;
//   - every failover counter nonzero by the end: rerouted, hedged,
//     hedge_wins, shard_quarantines, shard_rebuilds, brownouts — a
//     mechanism that never fired was not soaked.
//
//   failover_soak [--seconds 8] [--shards 3] [--load-frac 0.25]
//                 [--deadline-ms 200] [--goodput-frac 0.9]
//                 [--slack-ms 500] [--zipf 1.3] [--json BENCH_failover.json]
//
// Exit 0 on a clean soak, 1 on a violated gate, 2 on the global
// deadline (the zero-deadlock monitor).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/failover/failover.h"
#include "src/matrix/matrix.h"
#include "src/service/smm_service.h"

namespace {

using namespace smm;
using Clock = std::chrono::steady_clock;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

// ---- traffic phases --------------------------------------------------------

// Completions are attributed to the phase their request was SUBMITTED
// in; the scheduler accumulates wall time per phase as it transitions.
enum Phase : int {
  kWarm = 0,     // uncounted ramp
  kSteady = 1,   // no faults: the goodput baseline
  kFault = 2,    // rolling single-shard quarantine/revive
  kBrownout = 3, // majority-quarantine window (uncounted for goodput)
  kDrain = 4,    // uncounted tail
  kNumPhases = 5,
};

std::atomic<int> g_phase{kWarm};

struct Totals {
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> classified{0};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> refused{0};
  std::atomic<std::size_t> stopped{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> late{0};
  std::atomic<std::size_t> ok_by_phase[kNumPhases] = {};
};

struct Pending {
  Ticket ticket;
  Clock::time_point submitted;
  long deadline_ms = 0;
  int phase = kWarm;
};

/// Wait a ticket and classify its terminal state. `waited_ms` is
/// measured at classification time — an upper bound on terminal
/// latency, kept tight by the producers' prompt poll sweeps.
void classify(const Pending& item, Totals& totals, long slack_ms) {
  const Result& r = item.ticket.wait();
  const auto waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            item.submitted)
          .count();
  totals.classified.fetch_add(1);
  if (r.ok) {
    totals.ok.fetch_add(1);
    totals.ok_by_phase[item.phase].fetch_add(1);
  } else if (r.code == ErrorCode::kOverloaded ||
             r.code == ErrorCode::kShuttingDown) {
    totals.refused.fetch_add(1);
  } else if (r.code == ErrorCode::kCancelled ||
             r.code == ErrorCode::kDeadlineExceeded) {
    totals.stopped.fetch_add(1);
  } else {
    totals.unexpected.fetch_add(1);
    std::fprintf(stderr, "unexpected terminal state: %s\n",
                 r.message.c_str());
  }
  if (r.code != ErrorCode::kOverloaded &&
      r.code != ErrorCode::kShuttingDown &&
      waited_ms > 2 * item.deadline_ms + slack_ms) {
    totals.late.fetch_add(1);
    std::fprintf(stderr, "late terminal: %lld ms (deadline %ld ms)\n",
                 static_cast<long long>(waited_ms), item.deadline_ms);
  }
}

// ---- Zipfian shape pool ----------------------------------------------------

/// Small f32 cubes in the dispatch-sensitive regime; the Zipf ranking
/// makes a couple of them hot, the rest a long tail.
constexpr index_t kPoolDims[] = {24, 32, 40, 48, 64};
constexpr std::size_t kPoolSize = sizeof(kPoolDims) / sizeof(kPoolDims[0]);

struct ShapeSet {
  std::vector<Matrix<float>> as;
  std::vector<Matrix<float>> bs;
  ShapeSet() {
    Rng rng(4242);
    for (const index_t d : kPoolDims) {
      as.emplace_back(d, d);
      bs.emplace_back(d, d);
      as.back().fill_random(rng);
      bs.back().fill_random(rng);
    }
  }
};

std::vector<double> zipf_cdf(double s) {
  std::vector<double> cdf(kPoolSize);
  double total = 0.0;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

// ---- hedge bursts ----------------------------------------------------------

/// Per-shard shapes the deterministic router homes on that shard:
/// blockers (big, lane-hogging) and highs (hedge candidates). Found by
/// scanning k — the same public-route_shard idiom the tests use.
struct HomedShapes {
  index_t blocker_k = 0;
  index_t high_k = 0;
};

constexpr index_t kBlockerDim = 160;
constexpr index_t kHighDim = 96;

std::vector<HomedShapes> find_homed_shapes(const SmmService& service,
                                           int shards) {
  std::vector<HomedShapes> homed(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    for (index_t k = kBlockerDim; k < kBlockerDim + 256; ++k)
      if (service.route_shard(kBlockerDim, kBlockerDim, k, 0) == s) {
        homed[static_cast<std::size_t>(s)].blocker_k = k;
        break;
      }
    for (index_t k = kHighDim; k < kHighDim + 256; ++k)
      if (service.route_shard(kHighDim, kHighDim, k, 0) == s) {
        homed[static_cast<std::size_t>(s)].high_k = k;
        break;
      }
  }
  return homed;
}

/// Stuff `target`'s lane with kHigh blockers, then submit kHigh
/// requests with wide deadline slack homed on the same shard: with the
/// home lane busy, the hedge timer fires and the backup — placed on the
/// fallback ring — wins the claim race. Waits every ticket to a
/// terminal before returning (prompt classification keeps the
/// late-terminal bound honest).
void hedge_burst(SmmService& service, const HomedShapes& shapes,
                 Totals& totals, long slack_ms) {
  constexpr int kBlockers = 6;
  constexpr int kHighs = 4;
  Rng rng(99);
  Matrix<float> ab(kBlockerDim, shapes.blocker_k);
  Matrix<float> bb(shapes.blocker_k, kBlockerDim);
  Matrix<float> ah(kHighDim, shapes.high_k);
  Matrix<float> bh(shapes.high_k, kHighDim);
  ab.fill_random(rng);
  bb.fill_random(rng);
  ah.fill_random(rng);
  bh.fill_random(rng);
  std::vector<Matrix<float>> cbs, chs;
  std::vector<Pending> pending;
  const int phase = g_phase.load(std::memory_order_relaxed);
  for (int i = 0; i < kBlockers; ++i) cbs.emplace_back(kBlockerDim, kBlockerDim);
  for (int i = 0; i < kHighs; ++i) chs.emplace_back(kHighDim, kHighDim);
  for (int i = 0; i < kBlockers; ++i) {
    totals.submitted.fetch_add(1);
    pending.push_back({service.submit(1.0f, ab.cview(), bb.cview(), 0.0f,
                                      cbs[static_cast<std::size_t>(i)].view(),
                                      Priority::kHigh),
                       Clock::now(), 0, phase});
  }
  for (int i = 0; i < kHighs; ++i) {
    totals.submitted.fetch_add(1);
    pending.push_back({service.submit(1.0f, ah.cview(), bh.cview(), 0.0f,
                                      chs[static_cast<std::size_t>(i)].view(),
                                      Priority::kHigh, /*deadline_ms=*/500),
                       Clock::now(), 500, phase});
  }
  for (const Pending& p : pending) classify(p, totals, slack_ms);
}

// ---- fault-schedule soak ---------------------------------------------------

int run_soak(int argc, char** argv) {
  const int seconds =
      std::stoi(bench::arg_value(argc, argv, "--seconds", "8"));
  const int shards = std::stoi(bench::arg_value(argc, argv, "--shards", "3"));
  const double load_frac =
      std::stod(bench::arg_value(argc, argv, "--load-frac", "0.25"));
  const long deadline_ms =
      std::stol(bench::arg_value(argc, argv, "--deadline-ms", "200"));
  const double goodput_frac =
      std::stod(bench::arg_value(argc, argv, "--goodput-frac", "0.9"));
  const long slack_ms =
      std::stol(bench::arg_value(argc, argv, "--slack-ms", "500"));
  const double zipf_s =
      std::stod(bench::arg_value(argc, argv, "--zipf", "1.3"));
  const std::string json_path =
      bench::arg_value(argc, argv, "--json", "BENCH_failover.json");
  if (shards < 3) {
    std::fprintf(stderr, "failover_soak needs >= 3 shards (majority "
                         "quarantine must leave a survivor)\n");
    return 1;
  }

  ServiceOptions options;
  options.shards = shards;
  options.lanes = 1;
  options.threads_per_request = 1;
  options.queue_depth = 64;
  options.coalesce_depth = 1;
  options.coalesce_window_us = 0;
  // A 1 ms hedge delay: far above every healthy completion in this mix
  // (so hedges stay rare), far below a stuffed lane's backlog (so the
  // bursts fire them deterministically).
  options.failover.hedge_ms = 1;
  SmmService service(options);

  ShapeSet shapes;
  const std::vector<double> cdf = zipf_cdf(zipf_s);
  const std::vector<HomedShapes> homed = find_homed_shapes(service, shards);

  // Measure synchronous round-trip capacity of one lane over the Zipf
  // mix (median-of-three batches, same idiom as overload_soak), then
  // offer load_frac x shards x that: moderate load with real headroom
  // on the survivors when a shard is quarantined.
  {
    Matrix<float> c(kPoolDims[0], kPoolDims[0]);
    for (int i = 0; i < 30; ++i)
      service
          .submit(1.0f, shapes.as[0].cview(), shapes.bs[0].cview(), 0.0f,
                  c.view())
          .wait();
  }
  double units[3];
  {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<Matrix<float>> cs;
    for (const index_t d : kPoolDims) cs.emplace_back(d, d);
    constexpr int kCal = 200;
    for (double& unit : units) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kCal; ++i) {
        const double u = uni(rng);
        std::size_t s = 0;
        while (s + 1 < kPoolSize && u > cdf[s]) ++s;
        service
            .submit(1.0f, shapes.as[s].cview(), shapes.bs[s].cview(), 0.0f,
                    cs[s].view())
            .wait();
      }
      unit = std::chrono::duration<double>(Clock::now() - t0).count() / kCal;
    }
  }
  std::sort(std::begin(units), std::end(units));
  const double capacity = 1.0 / units[1];
  const double offered = load_frac * capacity * shards;
  std::printf("calibration: %.1f us/request, offering %.0f req/s "
              "(%.2fx of one lane x %d shards)\n",
              units[1] * 1e6, offered, load_frac, shards);

  // Zero-deadlock monitor: the soak, fault schedule, and drain must all
  // finish well before this or the process dies with exit 2.
  std::atomic<bool> finished{false};
  std::thread monitor([&] {
    const auto deadline =
        Clock::now() + std::chrono::seconds(3 * seconds + 60);
    while (Clock::now() < deadline) {
      if (finished.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "GLOBAL DEADLINE: soak did not finish\n");
    std::_Exit(2);
  });

  Totals totals;
  constexpr int kProducers = 2;
  std::atomic<bool> stop_traffic{false};
  std::vector<std::thread> producers;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kProducers / offered));

  for (int w = 0; w < kProducers; ++w) {
    producers.emplace_back([&, w] {
      // Per-shape C rings: slot reuse waits on the ticket that last
      // wrote the slot, bounding outstanding work without two in-flight
      // requests ever sharing an output.
      constexpr int kRing = 32;
      std::vector<std::vector<Matrix<float>>> cs(kPoolSize);
      std::vector<std::vector<Ticket>> rings(kPoolSize);
      std::vector<std::size_t> nshape(kPoolSize, 0);
      for (std::size_t s = 0; s < kPoolSize; ++s) {
        rings[s].resize(kRing);
        for (int i = 0; i < kRing; ++i)
          cs[s].emplace_back(kPoolDims[s], kPoolDims[s]);
      }
      std::deque<Pending> pending;
      std::mt19937 rng(1000u + static_cast<unsigned>(w));
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      std::uint64_t n = 0;
      auto next = Clock::now();
      while (!stop_traffic.load(std::memory_order_relaxed)) {
        const double u = uni(rng);
        std::size_t s = 0;
        while (s + 1 < kPoolSize && u > cdf[s]) ++s;
        const std::size_t slot = nshape[s] % kRing;
        if (rings[s][slot].valid()) rings[s][slot].wait();
        // Priority mix: mostly normal, some low (brownout shed fodder),
        // some high (hedge candidates under a wide deadline budget).
        const Priority priority = (n % 8 == 0)   ? Priority::kLow
                                  : (n % 8 == 1) ? Priority::kHigh
                                                 : Priority::kNormal;
        const auto t0 = Clock::now();
        const int phase = g_phase.load(std::memory_order_relaxed);
        totals.submitted.fetch_add(1);
        Ticket t = service.submit(1.0f, shapes.as[s].cview(),
                                  shapes.bs[s].cview(), 0.0f,
                                  cs[s][slot].view(), priority, deadline_ms);
        rings[s][slot] = t;
        ++nshape[s];
        pending.push_back({t, t0, deadline_ms, phase});
        while (!pending.empty() && pending.front().ticket.done()) {
          classify(pending.front(), totals, slack_ms);
          pending.pop_front();
        }
        ++n;
        next += period;
        if (Clock::now() < next) std::this_thread::sleep_until(next);
      }
      while (!pending.empty()) {
        classify(pending.front(), totals, slack_ms);
        pending.pop_front();
      }
    });
  }

  // ---- the fault schedule, run from this thread -----------------------
  // Timeline (T = --seconds): 0.5 s warm, ~0.35 T steady (with one hedge
  // burst), then a fault phase of rolling quarantine/revive cycles with
  // hedge bursts on healthy shards and one majority-quarantine brownout
  // window in the middle, then revive-all and drain.
  double phase_secs[kNumPhases] = {};
  auto phase_started = Clock::now();
  const auto enter_phase = [&](int phase) {
    const auto now = Clock::now();
    phase_secs[g_phase.load()] +=
        std::chrono::duration<double>(now - phase_started).count();
    phase_started = now;
    g_phase.store(phase);
  };

  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  enter_phase(kSteady);
  const auto steady_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.35 * seconds));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  hedge_burst(service, homed[0], totals, slack_ms);
  std::this_thread::sleep_until(steady_end);

  enter_phase(kFault);
  const auto fault_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(0.5 * seconds));
  int victim = 0;
  int round = 0;
  bool did_brownout = false;
  while (Clock::now() < fault_end) {
    const double remaining =
        std::chrono::duration<double>(fault_end - Clock::now()).count();
    if (!did_brownout && remaining < 0.25 * seconds) {
      // Majority-quarantine window: two of three domains held down at
      // once. The survivor serves kNormal/kHigh; kLow is shed at the
      // door. Goodput here is intentionally uncounted.
      enter_phase(kBrownout);
      service.quarantine_shard(0);
      service.quarantine_shard(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      if (!service.in_brownout())
        std::fprintf(stderr, "WARNING: majority quarantine did not enter "
                             "brownout\n");
      service.revive_shard(0);
      service.revive_shard(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      enter_phase(kFault);
      did_brownout = true;
      continue;
    }
    service.quarantine_shard(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    // Burst on a shard that is NOT the quarantined one, so the blockers
    // land on a live lane and the hedge has a distinct shard to win on.
    hedge_burst(service, homed[static_cast<std::size_t>((victim + 1) % shards)],
                totals, slack_ms);
    service.revive_shard(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    victim = (victim + 1) % shards;
    ++round;
  }
  enter_phase(kDrain);
  for (int s = 0; s < shards; ++s)
    if (service.shard_state(s) == failover::ShardState::kQuarantined)
      service.revive_shard(s);
  std::printf("fault schedule: %d quarantine/revive rounds, brownout %s\n",
              round, did_brownout ? "exercised" : "MISSED");

  stop_traffic.store(true);
  for (auto& t : producers) t.join();
  service.drain();
  const auto stats = service.stats();
  service.shutdown();
  finished.store(true);
  monitor.join();
  phase_secs[kDrain] +=
      std::chrono::duration<double>(Clock::now() - phase_started).count();

  const double goodput_steady =
      phase_secs[kSteady] > 0.0
          ? static_cast<double>(totals.ok_by_phase[kSteady].load()) /
                phase_secs[kSteady]
          : 0.0;
  const double goodput_fault =
      phase_secs[kFault] > 0.0
          ? static_cast<double>(totals.ok_by_phase[kFault].load()) /
                phase_secs[kFault]
          : 0.0;
  const std::size_t lost =
      totals.submitted.load() - totals.classified.load();
  const std::size_t terminals = stats.completed + stats.rejected +
                                stats.evicted + stats.cancellations +
                                stats.deadline_misses;

  std::printf("ok %zu refused %zu stopped %zu unexpected %zu late %zu "
              "lost %zu\n",
              totals.ok.load(), totals.refused.load(), totals.stopped.load(),
              totals.unexpected.load(), totals.late.load(), lost);
  std::printf("goodput: steady %.0f req/s (%.1f s), fault %.0f req/s "
              "(%.1f s), ratio %.3f (gate %.2f); brownout window %.1f s\n",
              goodput_steady, phase_secs[kSteady], goodput_fault,
              phase_secs[kFault], goodput_steady > 0.0
                                      ? goodput_fault / goodput_steady
                                      : 0.0,
              goodput_frac, phase_secs[kBrownout]);
  std::printf("failover counters: rerouted %zu hedged %zu hedge_wins %zu "
              "shard_quarantines %zu shard_rebuilds %zu brownouts %zu\n",
              stats.rerouted, stats.hedged, stats.hedge_wins,
              stats.shard_quarantines, stats.shard_rebuilds,
              stats.brownouts);
  std::printf("accounting: submitted %zu terminals %zu queued %zu "
              "in_flight %zu routed %zu rerouted %zu\n",
              stats.submitted, terminals, stats.queued, stats.in_flight,
              stats.routed, stats.rerouted);

  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"failover_soak\",\n";
    json << strprintf("  \"seconds\": %d, \"shards\": %d, "
                      "\"load_frac\": %.2f, \"zipf\": %.2f,\n",
                      seconds, shards, load_frac, zipf_s);
    json << strprintf("  \"offered_per_s\": %.0f,\n", offered);
    json << strprintf("  \"goodput_steady_per_s\": %.1f, "
                      "\"goodput_fault_per_s\": %.1f, "
                      "\"goodput_ratio\": %.3f,\n",
                      goodput_steady, goodput_fault,
                      goodput_steady > 0.0 ? goodput_fault / goodput_steady
                                           : 0.0);
    json << strprintf("  \"ok\": %zu, \"refused\": %zu, \"stopped\": %zu, "
                      "\"late\": %zu, \"lost\": %zu,\n",
                      totals.ok.load(), totals.refused.load(),
                      totals.stopped.load(), totals.late.load(), lost);
    json << strprintf("  \"rerouted\": %zu, \"hedged\": %zu, "
                      "\"hedge_wins\": %zu, \"shard_quarantines\": %zu, "
                      "\"shard_rebuilds\": %zu, \"brownouts\": %zu\n",
                      stats.rerouted, stats.hedged, stats.hedge_wins,
                      stats.shard_quarantines, stats.shard_rebuilds,
                      stats.brownouts);
    json << "}\n";
  }

  bool failed = false;
  const auto gate = [&](bool bad, const char* what) {
    if (!bad) return;
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
    failed = true;
  };
  gate(lost != 0, "lost tickets (submitted without a classified terminal)");
  gate(totals.unexpected.load() != 0, "unexpected terminal states");
  gate(totals.late.load() != 0, "terminal past 2x deadline + slack");
  gate(stats.queued != 0 || stats.in_flight != 0,
       "work stranded after drain");
  gate(terminals != stats.submitted,
       "terminal accounting identity violated");
  gate(goodput_fault < goodput_frac * goodput_steady,
       "fault-phase goodput below threshold");
  gate(!did_brownout, "brownout window never ran");
  gate(stats.rerouted == 0, "rerouted counter stayed zero");
  gate(stats.hedged == 0, "hedged counter stayed zero");
  gate(stats.hedge_wins == 0, "hedge_wins counter stayed zero");
  gate(stats.shard_quarantines == 0,
       "shard_quarantines counter stayed zero");
  gate(stats.shard_rebuilds == 0, "shard_rebuilds counter stayed zero");
  gate(stats.brownouts == 0, "brownouts counter stayed zero");
  std::printf("failover_soak: %s\n", failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return run_soak(argc, argv); }
