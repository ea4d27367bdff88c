// Robust serving: serve::Engine as the Status-returning boundary around
// model load + infer.
//
//   $ ./examples/robust_serving
//
// Everything inside the engine reports failure by exception; serve::Engine
// converts every failure into a core::Status so a serving process never
// crashes on a bad file, a bad request, or a failing worker:
//   1. save a small model and open it with serve::Engine::open;
//   2. serve a good request and a malformed one;
//   3. inject a worker fault with the failpoint framework, watch it surface
//      as kWorkerFailure, and verify the engine recovers bit-exactly;
//   4. every request runs under an end-to-end deadline, so a wedged one
//      becomes kDeadlineExceeded instead of a hang.
// Exits 1 unless the fault surfaced and the request after it is bit-exact
// (ctest runs it).
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/bitflow.hpp"
#include "io/model.hpp"

int main() {
  using namespace bitflow;

  // 1. Build + save a model (per-process path: ctest may run copies at
  //    once), then open it behind the serving boundary.
  io::Model model(graph::TensorDesc{16, 16, 8});
  model.add_conv("c1", bitpack::pack_filters(models::random_filters(32, 3, 3, 8, 7)), 1, 1,
                 std::vector<float>(32, 0.0f));
  model.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  model.add_fc("f1", bitpack::pack_transpose_fc_weights(
                         models::random_fc_weights(8 * 8 * 32, 10, 8).data(), 8 * 8 * 32, 10));
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("robust_serving." + std::to_string(::getpid()) + ".bflow"))
                               .string();
  model.save(path);

  serve::EngineConfig cfg;  // one worker: infer() serves one request at a time
  cfg.net.num_threads = 2;
  cfg.default_deadline = std::chrono::milliseconds(500);  // 4. wedged -> Status
  auto opened = serve::Engine::open(path, cfg);
  if (!opened.is_ok()) {
    std::printf("open failed: %s\n", opened.status().to_string().c_str());
    std::filesystem::remove(path);
    return 1;
  }
  serve::Engine engine = std::move(opened).value();

  // A file that is not a model is a Status, not a crash.
  auto bad = serve::Engine::open("/no/such/model.bflow", cfg);
  std::printf("opening a missing file     -> %s\n", bad.status().to_string().c_str());

  // 2. Serve a good request, then a malformed one.
  Tensor image = Tensor::hwc(16, 16, 8);
  fill_uniform(image, 42);
  const auto good = engine.infer(image);
  std::printf("well-formed request        -> %s (top score %.3f)\n",
              good.status().to_string().c_str(), good.is_ok() ? good.value()[0] : 0.0f);
  const std::vector<float> reference = good.is_ok() ? good.value() : std::vector<float>{};

  const auto wrong = engine.infer(Tensor::hwc(4, 4, 8));
  std::printf("shape-mismatched request   -> %s\n", wrong.status().to_string().c_str());

  // 3. Inject a fault into the thread-pool workers (same hook CI's fault
  //    matrix uses; in production this path only fires if a worker throws).
  //    The engine reruns a failed batch once per member, which absorbs a
  //    one-off fault, so this one stays armed for the rerun too.
  failpoint::arm("runtime.worker", {failpoint::Action::kError, failpoint::Trigger::kAlways});
  const auto faulted = engine.infer(image);
  std::printf("request with injected fault-> %s\n", faulted.status().to_string().c_str());
  failpoint::disarm_all();

  // The engine survives the fault: the very next request is bit-exact.
  const auto after = engine.infer(image);
  const bool exact = after.is_ok() && !reference.empty() && after.value() == reference;
  std::printf("request after recovery     -> %s (%s)\n", after.status().to_string().c_str(),
              exact ? "bit-exact" : "MISMATCH");

  const serve::EngineStats s = engine.stats();
  std::printf("served %llu ok / %llu failed / %llu rejected\n",
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.rejected));
  std::filesystem::remove(path);
  const bool surfaced = faulted.status().code() == core::ErrorCode::kWorkerFailure;
  return exact && surfaced ? 0 : 1;
}
