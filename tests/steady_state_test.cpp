// Steady-state inference allocates nothing, and the first inference on a
// fresh context writes every activation-arena word before it reads it.
//
// This executable replaces the global operator new and delete:
//   * every allocation made while counting is on bumps one counter,
//     whichever thread makes it (the pool's workers included);
//   * the aligned forms, which AlignedBuffer uses, fill each fresh block
//     with 0xFF bytes.  An inference context's activation arenas are
//     allocated uninitialized, so its first inference runs over all-ones
//     arenas: a margin left unzeroed or a producer that ORs into a stale
//     word changes the scores.  ASan cannot stand in for this fill: by
//     default it fills only the first 4 KiB of a block
//     (max_malloc_fill_size).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arena_chain.hpp"
#include "graph/network.hpp"
#include "simd/parity.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/util.hpp"

namespace {

// Ordering contract: relaxed.  The flag is set and cleared by the test
// thread around the counted stretch, whose pool jobs it joins before it
// reads the tally; neither publishes other data.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t bytes, std::size_t align, bool fill_ones) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  if (fill_ones) std::memset(p, 0xFF, bytes);
  return p;
}

void* allocate_nothrow(std::size_t bytes, std::size_t align, bool fill_ones) noexcept {
  try {
    return allocate(bytes, align, fill_ones);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n, 0, false); }
void* operator new[](std::size_t n) { return allocate(n, 0, false); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a), true);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a), true);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, 0, false);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, 0, false);
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, static_cast<std::size_t>(a), true);
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, static_cast<std::size_t>(a), true);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bitflow::graph {
namespace {

/// Heap allocations, on any thread, while `fn` runs.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  // Ordering contract: relaxed — see g_counting.
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<Tensor> chain_inputs(std::int64_t n, std::uint64_t seed) {
  std::vector<Tensor> inputs;
  for (std::int64_t b = 0; b < n; ++b) {
    inputs.push_back(Tensor::hwc(12, 12, 96));
    fill_uniform(inputs.back(), seed + static_cast<std::uint64_t>(b));
  }
  return inputs;
}

std::vector<const Tensor*> pointers(const std::vector<Tensor>& inputs) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& t : inputs) ptrs.push_back(&t);
  return ptrs;
}

TEST(SteadyState, ReplacedAllocatorCountsAndFillsAlignedBlocks) {
  // The two hooks the tests below rely on.
  const std::uint64_t counted = allocations_during([] { ::operator delete(::operator new(64)); });
  EXPECT_EQ(counted, 1u);
  const AlignedBuffer arena = AlignedBuffer::uninitialized(3 * 4096 + 40);
  for (std::size_t i = 0; i < arena.size_bytes(); ++i) {
    ASSERT_EQ(arena.data()[i], std::byte{0xFF}) << "byte " << i;
  }
}

TEST(BinaryNetwork, SteadyStateInferBatchAllocatesNothing) {
  // README and DESIGN promise zero allocation at steady state: no job
  // wrapper, no kernel scratch and no pointer array may come from the heap
  // once a context has run its first call.
  const testing::ArenaChain chain;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {1, nproc}) {
    for (const bool profile : {false, true}) {
      NetworkConfig cfg;
      cfg.num_threads = threads;
      cfg.profile = profile;
      const BinaryNetwork net = chain.build(cfg);
      for (const std::int64_t n : {1, 3}) {
        InferenceContext ctx = net.make_context(n);
        const std::vector<Tensor> inputs = chain_inputs(n, 300);
        const std::vector<const Tensor*> ptrs = pointers(inputs);
        for (int i = 0; i < 3; ++i) (void)net.infer_batch(ptrs, ctx);  // first-call set-up
        const std::uint64_t allocs = allocations_during([&] {
          for (int i = 0; i < 20; ++i) (void)net.infer_batch(ptrs, ctx);
        });
        EXPECT_EQ(allocs, 0u) << "over 20 calls at n=" << n << ", " << threads
                              << " threads, profile " << profile;
      }
    }
  }
}

TEST(BinaryNetwork, FirstInferenceOverAllOnesArenasMatchesBaseline) {
  // Every context below is new, so its arenas hold nothing but 0xFF bytes
  // when its one inference starts: pack_input, each producer's whole-word
  // stores and zero_margin must write every word a later stage reads.
  const testing::ArenaChain chain;
  for (const simd::IsaLevel isa : simd::supported_isa_levels()) {
    NetworkConfig cfg;
    cfg.num_threads = 2;
    cfg.max_isa = isa;
    const BinaryNetwork net = chain.build(cfg);
    for (const std::int64_t n : {1, 3}) {
      InferenceContext ctx = net.make_context(n);
      const std::vector<Tensor> inputs = chain_inputs(n, 500 + static_cast<std::uint64_t>(n));
      const auto got = net.infer_batch(pointers(inputs), ctx);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n * 10));
      for (std::int64_t b = 0; b < n; ++b) {
        const std::vector<float> want = chain.baseline_forward(inputs[static_cast<std::size_t>(b)]);
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(b * 10) + i], want[i])
              << "isa " << simd::isa_name(isa) << " n=" << n << " image " << b << " score " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bitflow::graph
