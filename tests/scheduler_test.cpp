#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/bitflow.hpp"
#include "graph/scheduler.hpp"
#include "kernels/conv_spec.hpp"
#include "simd/cpu_features.hpp"

namespace bitflow::graph {
namespace {

using simd::CpuFeatures;
using simd::IsaLevel;

CpuFeatures all_features() {
  CpuFeatures f;
  f.popcnt = f.sse42 = f.avx2 = f.fma = true;
  f.avx512f = f.avx512bw = f.avx512vl = f.avx512vpopcntdq = true;
  return f;
}

TEST(Scheduler, PaperRulesOnFullHardware) {
  const CpuFeatures f = all_features();
  // The VGG mapping of Fig. 6.
  EXPECT_EQ(select_isa(512, f), IsaLevel::kAvx512);   // conv5.1 -> rule 1
  EXPECT_EQ(select_isa(256, f), IsaLevel::kAvx2);     // conv4.1 -> rule 2
  EXPECT_EQ(select_isa(128, f), IsaLevel::kSse);      // conv3.1 -> rule 3
  EXPECT_EQ(select_isa(64, f), IsaLevel::kU64);       // conv2.1 -> rule 4
  EXPECT_EQ(select_isa(3, f), IsaLevel::kU64);        // conv1.1 -> pad, rule 4
  EXPECT_EQ(select_isa(1024, f), IsaLevel::kAvx512);  // multiple of 512
  EXPECT_EQ(select_isa(25088, f), IsaLevel::kAvx512);  // fc6: 25088 = 512*49 -> rule 1
  EXPECT_EQ(select_isa(4096, f), IsaLevel::kAvx512);  // fc7
}

TEST(Scheduler, RulesDegradeWithHardware) {
  CpuFeatures f = all_features();
  f.avx512f = f.avx512bw = false;
  EXPECT_EQ(select_isa(512, f), IsaLevel::kAvx2) << "C=512 is also a multiple of 256";
  f.avx2 = false;
  EXPECT_EQ(select_isa(512, f), IsaLevel::kSse);
  f.sse42 = false;
  EXPECT_EQ(select_isa(512, f), IsaLevel::kU64);
}

TEST(Scheduler, ExplainStringsNameTheRule) {
  const CpuFeatures f = all_features();
  EXPECT_NE(explain_isa_selection(512, f).find("rule 1"), std::string::npos);
  EXPECT_NE(explain_isa_selection(256, f).find("rule 2"), std::string::npos);
  EXPECT_NE(explain_isa_selection(128, f).find("rule 3"), std::string::npos);
  EXPECT_NE(explain_isa_selection(64, f).find("rule 4"), std::string::npos);
  EXPECT_NE(explain_isa_selection(3, f).find("zero-padded"), std::string::npos);
}

TEST(Scheduler, SelectedIsaIsAlwaysSupported) {
  // Whatever the hardware, the selection must be executable.
  const CpuFeatures& real = simd::cpu_features();
  for (std::int64_t c : {1, 3, 32, 64, 128, 192, 256, 512, 4096, 25088}) {
    EXPECT_TRUE(real.supports(select_isa(c, real))) << c;
  }
}

TEST(Scheduler, SelectionNeverWidensAsHardwareNarrows) {
  // Ordering property behind the rule table: removing a hardware capability
  // can only keep or narrow the selection, never widen it.  Swept over every
  // tail class a channel count can fall into.
  const CpuFeatures tiers[] = {
      all_features(),
      [] { CpuFeatures f = all_features(); f.avx512f = f.avx512bw = false; return f; }(),
      [] { CpuFeatures f = all_features(); f.avx512f = f.avx512bw = f.avx2 = false; return f; }(),
      CpuFeatures{},  // nothing: scalar only
  };
  for (std::int64_t c : {1, 3, 63, 64, 65, 128, 192, 256, 300, 512, 1024, 25088}) {
    IsaLevel prev = select_isa(c, tiers[0]);
    for (std::size_t t = 1; t < std::size(tiers); ++t) {
      const IsaLevel cur = select_isa(c, tiers[t]);
      EXPECT_LE(static_cast<int>(cur), static_cast<int>(prev))
          << "C=" << c << " widened from tier " << t - 1 << " to " << t;
      EXPECT_TRUE(tiers[t].supports(cur)) << "C=" << c << " tier " << t;
      prev = cur;
    }
  }
}

TEST(Scheduler, DefaultKernelPlanRule) {
  // The conv/fc plan: the widest ISA the CPU supports, clamped by the cap.
  // T follows from the ISA (16 on AVX2/AVX-512, 4 on u64/SSE) whatever K;
  // a K that fills no whole number of tiles is padded.  Nothing is measured.
  struct Case {
    std::optional<IsaLevel> cap;
    IsaLevel isa;
    std::int64_t tile;
  };
  const Case cases[] = {
      {std::nullopt, IsaLevel::kAvx512, 16},
      {IsaLevel::kAvx512, IsaLevel::kAvx512, 16},
      {IsaLevel::kAvx2, IsaLevel::kAvx2, 16},
      {IsaLevel::kSse, IsaLevel::kSse, 4},
      {IsaLevel::kU64, IsaLevel::kU64, 4},
  };
  const CpuFeatures f = all_features();
  for (const Case& c : cases) {
    const KernelPlan plan = default_kernel_plan(f, c.cap);
    const std::string cap = c.cap ? std::string(simd::isa_name(*c.cap)) : "none";
    EXPECT_EQ(plan.isa, c.isa) << "cap=" << cap;
    EXPECT_EQ(kernels::weight_tile_width(plan.isa), c.tile) << "cap=" << cap;
  }
  // Without a cap the hardware bounds the ISA.
  CpuFeatures avx2 = all_features();
  avx2.avx512f = avx2.avx512bw = false;
  EXPECT_EQ(default_kernel_plan(avx2).isa, IsaLevel::kAvx2);
  // The layer's reason names how K fills the tiles: K = 1000 at T = 16 is
  // 63 tiles with 8 idle lanes, K = 1 one tile with 15, K = 64 none idle.
  const std::string wide = explain_kernel_plan(default_kernel_plan(f), 1000);
  EXPECT_NE(wide.find("63 tiles of T=16, 8 idle lanes"), std::string::npos) << wide;
  EXPECT_NE(wide.find("P=4"), std::string::npos) << wide;
  const std::string one = explain_kernel_plan(default_kernel_plan(f), 1);
  EXPECT_NE(one.find("1 tile of T=16, 15 idle lanes"), std::string::npos) << one;
  const std::string narrow = explain_kernel_plan(default_kernel_plan(f, IsaLevel::kU64), 64);
  EXPECT_NE(narrow.find("16 tiles of T=4, 0 idle lanes; P=2"), std::string::npos) << narrow;
}

TEST(SystemReport, MentionsVersionAndMapping) {
  const std::string r = bitflow::system_report();
  EXPECT_NE(r.find("BitFlow"), std::string::npos);
  EXPECT_NE(r.find("C=512"), std::string::npos);
  EXPECT_NE(r.find("Operator -> kernel mapping"), std::string::npos);
}

}  // namespace
}  // namespace bitflow::graph
