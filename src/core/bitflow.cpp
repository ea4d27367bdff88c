#include "core/bitflow.hpp"

#include <sstream>

namespace bitflow {

const char* version() { return "1.0.0"; }

std::string system_report() {
  const simd::CpuFeatures& f = simd::cpu_features();
  std::ostringstream os;
  os << "BitFlow " << version() << "\n";
  os << "CPU features: " << f.to_string() << "\n";
  os << "Widest binary kernel ISA: " << simd::isa_name(f.best_isa()) << "\n";
  os << "Operator -> kernel mapping:\n";
  os << "  conv/fc (register tiles, vectorized along K), any C:\n    "
     << graph::explain_kernel_plan(graph::default_kernel_plan(f), 64) << "\n";
  os << "  maxpool (paper Fig. 6 channel rules, vectorized along C):\n";
  for (std::int64_t c : {3, 64, 128, 256, 512, 4096, 25088}) {
    os << "    " << graph::explain_isa_selection(c, f) << "\n";
  }
  return os.str();
}

}  // namespace bitflow
