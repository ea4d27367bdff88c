// Randomized chaos soak for the serving lifecycle: mixed-priority open-loop
// load against a serve::Engine while a chaos thread arms a randomized
// failpoint schedule (errors, allocation failures, stalls, forced sheds,
// forced cancellations, forced quarantines).
//
// The suite asserts the lifecycle hardening invariants, not specific
// outcomes:
//   * every submitted future resolves (no broken_promise, no hang) — under
//     ASan that also proves nothing leaked on any error path;
//   * every SUCCESSFUL result is bit-exact with the single-stream reference;
//   * every failure carries one of the documented lifecycle codes;
//   * the engine's books balance afterwards: accepted == completed +
//     failed + expired + cancelled and nothing is left in flight;
//   * drain() after the storm still terminates (cancellation checkpoints
//     guarantee progress) and leaves a clean Drained engine.
//
// Runs under ASan and TSan in CI (the `robustness` job).  Duration is a few
// seconds by default; BITFLOW_CHAOS_MS overrides it for longer soaks.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <random>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "serve/engine.hpp"
#include "tensor/util.hpp"

namespace bitflow::serve {
namespace {

using namespace std::chrono_literals;
using core::ErrorCode;
using failpoint::Action;
using failpoint::Config;
using failpoint::Trigger;

io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 11);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 12);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

int chaos_duration_ms() {
  if (const char* env = std::getenv("BITFLOW_CHAOS_MS"); env != nullptr && *env != '\0') {
    return std::atoi(env);
  }
  return 2000;
}

/// One step of the randomized failpoint schedule.  Stalls are kept short so
/// the soak stays a soak (and sanitizer runs stay within timeouts).
void arm_random_fault(std::mt19937& rng) {
  struct Entry {
    const char* point;
    Action action;
    std::uint64_t stall_ms;
  };
  static constexpr Entry kSchedule[] = {
      {"serve.infer", Action::kError, 0},
      {"serve.infer", Action::kBadAlloc, 0},
      {"serve.infer", Action::kStall, 10},
      {"runtime.worker", Action::kError, 0},
      {"runtime.worker_stall", Action::kStall, 5},
      {"serve.queue_admit", Action::kError, 0},
      {"serve.shed", Action::kSite, 0},
      {"serve.cancel_checkpoint", Action::kSite, 0},
      {"serve.worker_quarantine", Action::kSite, 0},
      {"alloc.buffer", Action::kBadAlloc, 0},
  };
  const Entry& e = kSchedule[rng() % std::size(kSchedule)];
  Config c;
  c.action = e.action;
  c.stall_ms = e.stall_ms;
  switch (rng() % 3) {
    case 0: c.trigger = Trigger::kOnce; c.n = 1; break;
    case 1: c.trigger = Trigger::kCounted; c.n = 1 + rng() % 3; break;
    default: c.trigger = Trigger::kEveryNth; c.n = 2 + rng() % 4; break;
  }
  failpoint::arm(e.point, c);
}

TEST(ChaosSoak, LifecycleInvariantsHoldUnderRandomizedFaults) {
  failpoint::disarm_all();
  const io::Model model = make_model();

  // Single-stream reference straight from the network: every successful
  // answer must equal this.
  Tensor input = Tensor::hwc(8, 8, 8);
  fill_uniform(input, 5);
  std::vector<float> ref;
  {
    graph::NetworkConfig nc;
    nc.num_threads = 2;
    graph::BinaryNetwork net = model.instantiate(nc);
    const std::span<const float> s = net.infer(input);
    ref.assign(s.begin(), s.end());
  }

  EngineConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.batch_timeout = 200us;
  cfg.queue_capacity = 64;
  cfg.breaker_threshold = 2;
  cfg.breaker_backoff = 10ms;
  auto er = Engine::create(model, cfg);
  ASSERT_TRUE(er.is_ok()) << er.status().to_string();
  Engine engine = std::move(er.value());

  const auto t_end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(chaos_duration_ms());
  std::atomic<bool> stop{false};

  // Open-loop mixed-priority submitters: they pace themselves by clock, not
  // by completions, so backpressure/shedding genuinely engages.
  std::mutex futures_mu;
  std::vector<std::future<core::Result<std::vector<float>>>> futures;
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      std::vector<std::future<core::Result<std::vector<float>>>> mine;
      // Ordering contract: relaxed — stop is a quiescent shutdown flag.
      while (!stop.load(std::memory_order_relaxed)) {
        const Priority prio = rng() % 10 == 0 ? Priority::kHigh : Priority::kNormal;
        std::chrono::milliseconds deadline{0};
        switch (rng() % 3) {
          case 0: deadline = std::chrono::milliseconds(5); break;
          case 1: deadline = std::chrono::milliseconds(100); break;
          default: break;  // no deadline
        }
        try {
          mine.push_back(engine.submit(input, deadline, prio));
        } catch (const std::bad_alloc&) {
          // The alloc.buffer failpoint fires in OUR frame while copying the
          // input tensor for the call — before the engine's firewall can see
          // the request.  No future was created, so nothing to track.
        }
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 1500));
      }
      std::lock_guard<std::mutex> lock(futures_mu);
      for (auto& f : mine) futures.push_back(std::move(f));
    });
  }

  // Chaos thread: randomized failpoint schedule.
  std::thread chaos([&] {
    std::mt19937 rng(99u);
    while (std::chrono::steady_clock::now() < t_end) {
      arm_random_fault(rng);
      (void)engine.stats();  // scrape while everything churns
      std::this_thread::sleep_for(std::chrono::milliseconds(5 + rng() % 20));
    }
    failpoint::disarm_all();
  });

  chaos.join();
  stop.store(true, std::memory_order_relaxed);  // Ordering contract: relaxed.
  for (std::thread& t : submitters) t.join();
  failpoint::disarm_all();

  // Every future resolves; successes are bit-exact; failures carry only
  // documented lifecycle codes.
  std::size_t ok = 0, failed = 0;
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    auto r = f.get();  // must not throw broken_promise, must not hang
    if (r.is_ok()) {
      ++ok;
      ASSERT_EQ(r.value(), ref);
    } else {
      ++failed;
      const ErrorCode c = r.status().code();
      EXPECT_TRUE(c == ErrorCode::kResourceExhausted || c == ErrorCode::kDeadlineExceeded ||
                  c == ErrorCode::kCancelled || c == ErrorCode::kUnavailable ||
                  c == ErrorCode::kWorkerFailure || c == ErrorCode::kInternal)
          << r.status().to_string();
    }
  }
  EXPECT_GT(ok, 0u) << "the soak never completed a single request";

  // The engine still drains cleanly after the storm.
  const core::Status ds = engine.drain(5000ms);
  ASSERT_TRUE(ds.is_ok()) << ds.to_string();
  EXPECT_EQ(engine.state(), EngineState::kDrained);

  // Books balance at quiescence: nothing lost, nothing still in flight.
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.accepted + s.rejected, static_cast<std::uint64_t>(futures.size()));
  EXPECT_EQ(s.accepted, s.completed + s.failed + s.expired + s.cancelled);
  EXPECT_EQ(s.in_flight, 0u);
  engine.shutdown();
}

}  // namespace
}  // namespace bitflow::serve
