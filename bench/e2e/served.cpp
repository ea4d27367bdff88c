// tiny_served and vgg16_served: the serving tier on loopback, driven by one
// process with at most two generator threads and one connection.
//
// Open-loop phases send on a seeded Poisson schedule, conditioned on its
// count (rate x duration arrival times drawn uniformly, then sorted), so a
// slow server does not slow the sender and every run offers the same
// number of requests.  Each latency runs from the request's scheduled send
// time to its response, which charges a stalled sender's backlog to the
// requests behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <variant>

#include "model_gen.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "offline.hpp"
#include "stats.hpp"
#include "tier.hpp"

namespace bench_e2e {

using namespace bitflow;

namespace {

/// Responses that have not arrived this long after the last send count as
/// unanswered.
constexpr auto kGrace = std::chrono::seconds(5);

struct Phase {
  std::vector<double> lat_ms;   ///< correct responses only
  std::vector<double> late_ms;  ///< actual send time minus scheduled
  std::uint64_t sent = 0, ok = 0, errors = 0, wrong = 0;
  double elapsed_s = 0;  ///< phase start to the last response

  [[nodiscard]] double rate() const { return elapsed_s > 0 ? ok / elapsed_s : 0.0; }

  /// Counts an error frame, printing the first few.
  void error_frame(const net::ErrorFrame& e) {
    if (++errors <= 3) {
      std::printf("# error frame for request %llu: %s %s\n",
                  static_cast<unsigned long long>(e.id), core::error_code_name(e.code),
                  e.message.c_str());
    }
  }
};

std::vector<double> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> at(0.0, seconds);
  std::vector<double> offsets(n);
  for (double& t : offsets) t = at(rng);
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

std::vector<net::RequestFrame> make_frames(const std::vector<Tensor>& images) {
  std::vector<net::RequestFrame> frames;
  for (const Tensor& img : images) {
    net::RequestFrame f;
    f.h = static_cast<std::uint32_t>(img.height());
    f.w = static_cast<std::uint32_t>(img.width());
    f.c = static_cast<std::uint32_t>(img.channels());
    f.data.assign(img.elements().begin(), img.elements().end());
    frames.push_back(std::move(f));
  }
  return frames;
}

/// Open loop over the socket: a sender thread paces by the schedule, this
/// thread receives.  Request i carries image i % frames.size().
Phase open_loop(net::Client& client, std::vector<net::RequestFrame>& frames, const Scores& refs,
                const std::vector<double>& offsets, std::uint64_t& next_id) {
  const std::size_t n = offsets.size();
  const std::uint64_t base = next_id;
  next_id += n;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<Clock::time_point> due(n), sent_at(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]));
  }
  // Ordering contract: `sent` is released after sent_at[i] is written and the
  // frame is out; the receiver acquires it to know how many may answer.
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due[i]);
      net::RequestFrame& f = frames[i % frames.size()];
      f.id = base + i;
      sent_at[i] = Clock::now();
      if (!client.send(f).is_ok()) break;
      sent.store(i + 1, std::memory_order_release);
    }
    sender_done.store(true, std::memory_order_release);
  });

  Phase p;
  std::vector<char> answered(n, 0);
  std::size_t answered_count = 0;
  Clock::time_point last = start;
  std::optional<Clock::time_point> give_up;
  for (;;) {
    const bool done = sender_done.load(std::memory_order_acquire);
    if (done && answered_count >= sent.load(std::memory_order_acquire)) break;
    if (done && !give_up) give_up = Clock::now() + kGrace;
    if (give_up && Clock::now() > *give_up) break;
    auto frame = client.recv(std::chrono::milliseconds(100));
    if (!frame.is_ok()) {
      if (frame.status().code() == core::ErrorCode::kDeadlineExceeded) continue;
      std::printf("# connection lost: %s\n", frame.status().to_string().c_str());
      break;
    }
    const auto now = Clock::now();
    const auto* resp = std::get_if<net::ResponseFrame>(&frame.value());
    const auto* err = std::get_if<net::ErrorFrame>(&frame.value());
    const std::uint64_t id = resp ? resp->id : err ? err->id : 0;
    if (err && id == 0) p.error_frame(*err);  // connection-level protocol error
    if (id < base || id >= base + n || answered[id - base]) continue;
    const std::size_t i = id - base;
    answered[i] = 1;
    ++answered_count;
    last = now;
    if (resp == nullptr) {
      p.error_frame(*err);
    } else if (same_scores(resp->scores, refs[i % refs.size()])) {
      ++p.ok;
      p.lat_ms.push_back(ms_between(due[i], now));
      spans().record("net.request", "net", due[i], now, id);
    } else {
      ++p.wrong;
    }
  }
  sender.join();
  p.sent = sent.load(std::memory_order_acquire);
  p.errors += p.sent - answered_count;  // unanswered
  for (std::size_t i = 0; i < p.sent; ++i) p.late_ms.push_back(ms_between(due[i], sent_at[i]));
  p.elapsed_s = ms_between(start, last) / 1e3;
  return p;
}

/// Closed loop over the socket: `outstanding` requests in flight, each
/// response answered by the next request, for `seconds`.  Keeps no latency
/// samples: their number would follow the throughput, and so would the
/// process's peak RSS.
Phase closed_loop_socket(net::Client& client, std::vector<net::RequestFrame>& frames,
                         const Scores& refs, int outstanding, double seconds,
                         std::uint64_t& next_id) {
  Phase p;
  std::unordered_set<std::uint64_t> in_flight;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const auto send_one = [&] {
    const std::uint64_t id = next_id++;
    net::RequestFrame& f = frames[id % frames.size()];
    f.id = id;
    if (!client.send(f).is_ok()) return;
    in_flight.insert(id);
    ++p.sent;
  };
  for (int j = 0; j < outstanding; ++j) send_one();
  Clock::time_point last = start;
  while (!in_flight.empty()) {
    auto frame = client.recv(std::chrono::duration_cast<std::chrono::milliseconds>(kGrace));
    if (!frame.is_ok()) break;
    const auto now = Clock::now();
    const auto* resp = std::get_if<net::ResponseFrame>(&frame.value());
    const auto* err = std::get_if<net::ErrorFrame>(&frame.value());
    const std::uint64_t id = resp ? resp->id : err ? err->id : 0;
    const auto it = in_flight.find(id);
    if (it == in_flight.end()) continue;
    if (resp == nullptr) {
      p.error_frame(*err);
    } else if (same_scores(resp->scores, refs[id % refs.size()])) {
      ++p.ok;
    } else {
      ++p.wrong;
    }
    in_flight.erase(it);
    last = now;
    if (now < end) send_one();
  }
  p.errors += in_flight.size();
  p.elapsed_s = ms_between(start, last) / 1e3;
  return p;
}

/// The same open-loop schedule through the router's in-process callback
/// submit: no sockets, no codec.
Phase open_loop_inproc(Tier& tier, const std::vector<Tensor>& images, const Scores& refs,
                       const std::vector<double>& offsets) {
  // Shared with the callbacks, which may outlive this call if a request is
  // never answered within the grace period.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    Scores refs;
    std::vector<Clock::time_point> done_at;
    std::vector<char> outcome;  // 0 pending, 1 ok, 2 error, 3 wrong
    std::size_t done = 0;
  };
  const std::size_t n = offsets.size();
  auto st = std::make_shared<State>();
  st->refs = refs;
  st->done_at.resize(n);
  st->outcome.resize(n, 0);
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  std::vector<Clock::time_point> due(n);
  Phase p;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(due[i]);
    Tensor input = images[i % images.size()];
    p.late_ms.push_back(ms_between(due[i], Clock::now()));
    tier.submit(std::move(input), [st, i](core::Result<std::vector<float>>&& out) {
      const auto now = Clock::now();
      const std::lock_guard<std::mutex> lock(st->mu);
      st->done_at[i] = now;
      st->outcome[i] = !out.is_ok() ? 2 : same_scores(out.value(), st->refs[i % st->refs.size()])
                                              ? 1
                                              : 3;
      ++st->done;
      st->cv.notify_all();
    });
  }
  p.sent = n;
  std::unique_lock<std::mutex> lock(st->mu);
  st->cv.wait_until(lock, Clock::now() + kGrace, [&] { return st->done == n; });
  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    switch (st->outcome[i]) {
      case 0: ++p.errors; continue;
      case 1:
        ++p.ok;
        p.lat_ms.push_back(ms_between(due[i], st->done_at[i]));
        spans().record("serve.submit", "serve", due[i], st->done_at[i], i + 1);
        break;
      case 2: ++p.errors; break;
      default: ++p.wrong; break;
    }
    last = std::max(last, st->done_at[i]);
  }
  p.elapsed_s = ms_between(start, last) / 1e3;
  return p;
}

void tally(const Phase& p, Report& r) {
  r.attempted += p.sent;
  r.errors += p.errors;
  r.wrong += p.wrong;
}

/// net.encode_request_us / net.decode_request_us / net.request_bytes: the
/// codec alone on one request of this workload's size.
void report_codec(const net::RequestFrame& req, int iterations, Report& r) {
  std::vector<std::uint8_t> buf;
  std::vector<double> enc_us, dec_us;
  bool round_trip = true;
  for (int k = 0; k < iterations; ++k) {
    buf.clear();
    const auto t0 = Clock::now();
    net::append_request(buf, req);
    const auto t1 = Clock::now();
    auto decoded = net::decode_frame(buf.data(), buf.size());
    const auto t2 = Clock::now();
    enc_us.push_back(ms_between(t0, t1) * 1e3);
    dec_us.push_back(ms_between(t1, t2) * 1e3);
    const auto* back = decoded.is_ok() ? std::get_if<net::RequestFrame>(&decoded.value()) : nullptr;
    round_trip = round_trip && back != nullptr && back->data == req.data;
  }
  if (!round_trip) {
    std::printf("# WRONG: request frame does not survive encode/decode\n");
    ++r.wrong;
  }
  const std::string note = "median of " + std::to_string(iterations);
  r.set("net.encode_request_us", median(enc_us), "us", note);
  r.set("net.decode_request_us", median(dec_us), "us", note);
  r.set("net.request_bytes", static_cast<double>(buf.size()), "bytes");
}

net::Client connect(const Tier& tier) {
  auto c = net::Client::connect("127.0.0.1", tier.port());
  if (!c.is_ok()) throw std::runtime_error("connect: " + c.status().to_string());
  return std::move(c.value());
}

}  // namespace

Report setup_served(const RunOptions& opt) {
  Report r;
  const std::vector<Tensor> images = make_images(model_input(opt.workload), 1, opt.seed);
  net::RequestFrame frame = make_frames(images)[0];

  // Timed: .bflow on disk to the first socket response of every shard.
  // One request per shard, sent together: two-choice routing gives the
  // second of two requests to the shard the first did not take, so each
  // shard builds its worker's context and answers once, and all nproc
  // threads run, as in the offline workloads.
  io::Model model;
  std::optional<Tier> tier;
  std::optional<net::Client> client;
  Scores answers;
  const auto t0 = Clock::now();
  model = io::Model::load(opt.model_path);
  const auto t1 = Clock::now();
  tier.emplace(Tier::start(model, opt.nproc, false));
  client.emplace(connect(*tier));
  const auto shards = static_cast<std::size_t>(tier->shards());
  for (std::size_t k = 0; k < shards; ++k) {
    frame.id = k + 1;
    if (!client->send(frame).is_ok()) break;
  }
  for (std::size_t k = 0; k < shards; ++k) {
    auto reply = client->recv(std::chrono::milliseconds(10000));
    const auto* resp = reply.is_ok() ? std::get_if<net::ResponseFrame>(&reply.value()) : nullptr;
    if (resp == nullptr) break;
    answers.push_back(resp->scores);
  }
  const auto t2 = Clock::now();
  r.set("setup_rss_mb", peak_rss_mb(), "MB", "resident high-water mark after set-up");

  // Untimed: the graph.* steps of one offline cold start, whose first
  // result is the reference the socket response must match.
  io::Model offline_model;
  StageTimes offline_start;
  const std::unique_ptr<LoadedNet> offline =
      cold_start(opt.model_path, opt.nproc, 1, images, offline_model, offline_start);
  report_setup(offline_start, r);
  const Scores refs =
      reference_scores(offline->net, *offline->ctx, images, last_fan_in(offline_model), r);
  r.attempted += shards;
  r.wrong += shards - answers.size();
  for (const std::vector<float>& a : answers) {
    if (!same_scores(a, refs[0])) ++r.wrong;
  }
  r.set("setup_s", ms_between(t0, t2) / 1e3, "s");
  r.set("io.load_ms", ms_between(t0, t1), "ms");
  return r;
}

Report run_served(const RunOptions& opt) {
  Report r;
  const bool tiny = opt.workload == "tiny_served";
  const double nominal_rate = tiny ? 2000.0 : 8.0;
  constexpr double kLightRate = 200.0;
  constexpr int kClosedOutstanding = 16;
  const std::vector<Tensor> images = make_images(model_input(opt.workload), 8, opt.seed);
  std::vector<net::RequestFrame> frames = make_frames(images);

  // Offline reference: the scores every response must match.  Released
  // before the tier starts; a traced run loads it again later.
  io::Model model;
  StageTimes ignored;  // set-up is timed in processes of its own
  std::unique_ptr<LoadedNet> offline =
      cold_start(opt.model_path, opt.nproc, 1, images, model, ignored);
  const Scores refs = reference_scores(offline->net, *offline->ctx, images, last_fan_in(model), r);
  offline.reset();

  std::optional<Tier> tier(Tier::start(model, opt.nproc, false));
  std::optional<net::Client> client(connect(*tier));
  std::uint64_t next_id = 100;
  (void)closed_loop_socket(*client, frames, refs, 4, opt.warmup_s(), next_id);  // warm-up
  const std::uint64_t seed = opt.seed * 1000;
  std::vector<double> late;
  const auto add_late = [&late](const Phase& p) {
    late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
  };

  // End-to-end phases; a traced run spends half its time here.
  const double e2e_s = opt.traced ? opt.seconds / 2 : opt.seconds;
  const double phase_s = tiny ? e2e_s / 3 : e2e_s;
  std::optional<Phase> light;
  if (tiny) {
    light = open_loop(*client, frames, refs, poisson_schedule(kLightRate, phase_s, seed + 1),
                      next_id);
    tally(*light, r);
    add_late(*light);
  }
  const std::vector<double> schedule = poisson_schedule(nominal_rate, phase_s, seed + 2);
  const TierCounters before = tier->counters();
  const Phase nominal = open_loop(*client, frames, refs, schedule, next_id);
  const TierCounters after = tier->counters();
  tally(nominal, r);
  add_late(nominal);
  const Summary lat = summarize(nominal.lat_ms);
  r.set("e2e.latency_p50_ms", lat.p50, "ms", lat.note(50));
  r.set("e2e.latency_p90_ms", lat.p90, "ms", lat.note(90));
  const Summary light_lat = summarize(light ? light->lat_ms : nominal.lat_ms);
  r.set("e2e.light_latency_p50_ms", light_lat.p50, "ms",
        light ? light_lat.note(50) + " at 200 req/s" : "one rate: equals e2e.latency_p50_ms");
  if (tiny) {
    const Phase closed =
        closed_loop_socket(*client, frames, refs, kClosedOutstanding, phase_s, next_id);
    tally(closed, r);
    r.set("e2e.throughput_img_s", closed.rate(), "img/s",
          std::to_string(closed.ok) + " responses, 16 outstanding");
  } else {
    r.set("e2e.throughput_img_s", nominal.rate(), "img/s",
          std::to_string(nominal.ok) + " responses at 8 req/s offered");
  }
  r.set("serve.mean_batch",
        static_cast<double>(after.completed + after.failed - before.completed - before.failed) /
            static_cast<double>(std::max<std::uint64_t>(1, after.batches - before.batches)),
        "requests", "at the nominal rate");

  // Admission outcomes summed over every tier this run measured.
  std::uint64_t rejected = 0, expired = 0, shed = 0;
  const auto count_outcomes = [&](const TierCounters& c) {
    rejected += c.rejected;
    expired += c.expired;
    shed += c.shed;
  };
  if (!opt.traced) {
    count_outcomes(tier->counters());
  } else {
    offline = cold_start(opt.model_path, opt.nproc, 1, images, model, ignored);
    // The nominal schedule again, in process through the router: no sockets.
    const Phase inproc = open_loop_inproc(*tier, images, refs, schedule);
    tally(inproc, r);
    const double inproc_p50 = summarize(inproc.lat_ms).p50;
    r.set("serve.inproc_latency_p50_ms", inproc_p50, "ms", summarize(inproc.lat_ms).note(50));
    r.set("net.wire_overhead_p50_ms", lat.p50 - inproc_p50, "ms",
          "socket minus in-process p50");

    // Offline n=1 at the per-worker thread count: a request without the tier.
    graph::InferenceContext worker_ctx =
        offline->net.make_context(1, tier->threads_per_worker());
    const LoopResult worker = tally(
        closed_loop(offline->net, worker_ctx, 1, opt.seconds * 0.05, opt.min_calls(), images, refs),
        r);
    r.set("serve.overhead_p50_ms", inproc_p50 - median(worker.lat_ms), "ms",
          "in-process p50 minus offline n=1 p50 at " +
              std::to_string(tier->threads_per_worker()) + " threads");

    // The nominal schedule once more through a profiled tier.
    count_outcomes(tier->counters());
    client.reset();
    tier.reset();
    Tier profiled = Tier::start(model, opt.nproc, true);
    net::Client pclient = connect(profiled);
    (void)closed_loop_socket(pclient, frames, refs, 4, opt.warmup_s(), next_id);  // warm-up
    const graph::ProfileReport warm = profiled.network()->profile_report();
    const Phase traced = open_loop(pclient, frames, refs, schedule, next_id);
    tally(traced, r);
    add_late(traced);
    (void)report_kernels(*profiled.network(), warm, model, r);
    r.set("telemetry.profile_overhead_pct",
          100.0 * (summarize(traced.lat_ms).p50 - lat.p50) / lat.p50, "%");
    count_outcomes(profiled.counters());

    report_codec(frames[0], tiny ? 2000 : 200, r);
    const LoopResult nproc = tally(closed_loop(offline->net, *offline->ctx, 1, opt.seconds * 0.05,
                                                opt.min_calls(), images, refs),
                                    r);
    report_thread_speedup(offline->net, 1, opt, median(nproc.lat_ms), images, refs, r);
  }
  r.set("serve.rejected", static_cast<double>(rejected), "count");
  r.set("serve.expired", static_cast<double>(expired), "count");
  r.set("serve.shed", static_cast<double>(shed), "count");
  r.set("gen.late_p99_ms", summarize(late).p99, "ms", summarize(late).note(99));
  return r;
}

}  // namespace bench_e2e
