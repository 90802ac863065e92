// serve4_128: four camera streams through one serve::StreamServer with 4
// workers. Every session serves the same model (same weight seed) on its
// own heterogeneous W1A3 network instance at 128x128, built from
// demo_session_stages(..., kOffloadLayers); the offload stage holds the
// one exclusive engine. Each session keeps its bounded admission queue
// full: a closed loop with kQueueCapacity frames waiting per stream.

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>

#include "common.hpp"
#include "serve/demo.hpp"
#include "serve/server.hpp"
#include "video/camera.hpp"

namespace framebench {

using namespace tincy;

namespace {

constexpr int kSize = 128;
constexpr int kSessions = 4;
constexpr int64_t kQueueCapacity = 2;
constexpr int64_t kWarmupFrames = 8;  ///< delivered, over all sessions

struct Delivery {
  Clock::time_point at;
  double latency_ms = 0.0;
  int64_t detections = 0;
};

/// Everything the deliver hooks and the stage-0 hook touch.
struct Shared {
  std::mutex mu;
  std::condition_variable cv;
  int64_t started = 0;  ///< stage-0 jobs begun: admission room appeared
  std::vector<Delivery> deliveries;
  // Per session, guarded by mu:
  std::vector<std::map<int64_t, Clock::time_point>> submitted;
  std::vector<int64_t> next_sequence;  ///< expected next delivery
  std::vector<int64_t> in_order;       ///< delivered in sequence, no gap
  std::vector<int64_t> bad;            ///< out of order or malformed
  std::vector<std::optional<video::Frame>> first;
};

struct Window {
  double fps = 0.0;
  std::vector<double> latency_ms;
  int64_t frames = 0;
  int64_t detections = 0;
};

/// Deliveries inside [from, to]: fps over first-to-last delivery.
Window window(const std::vector<Delivery>& all, Clock::time_point from,
              Clock::time_point to) {
  Window w;
  Clock::time_point first{}, last{};
  for (const auto& d : all) {
    if (d.at < from || d.at > to) continue;
    if (w.frames == 0) first = d.at;
    last = d.at;
    ++w.frames;
    w.latency_ms.push_back(d.latency_ms);
    w.detections += d.detections;
  }
  if (w.frames >= 2)
    w.fps = 1e3 * static_cast<double>(w.frames - 1) / ms_between(first, last);
  return w;
}

}  // namespace

Result run_serve4_128(const Args& args) {
  Result r;
  const std::string binparams = args.out_dir + "/binparam-128";
  telemetry::TraceCollector tc(1 << 14);  // enabled only in a traced window
  Shared sh;
  sh.submitted.resize(kSessions);
  sh.next_sequence.assign(kSessions, 0);
  sh.in_order.assign(kSessions, 0);
  sh.bad.assign(kSessions, 0);
  sh.first.resize(kSessions);

  std::vector<std::unique_ptr<nn::Network>> nets;
  std::unique_ptr<serve::StreamServer> server;
  std::vector<std::string> span_names;
  int64_t engine_stage = -1;
  auto set_up = [&] {
    server.reset();
    nets.clear();
    const auto golden = export_w1a3_model(kSize, binparams);
    serve::ServerOptions opts;
    opts.num_workers = 4;
    server = std::make_unique<serve::StreamServer>(opts);
    for (int s = 0; s < kSessions; ++s) {
      nets.push_back(load_hetero_w1a3(*golden, binparams));
      nn::Network& net = *nets.back();
      serve::SessionConfig cfg;
      cfg.name = "cam" + std::to_string(s);
      cfg.queue_capacity = kQueueCapacity;
      cfg.stages = serve::demo_session_stages(net, pipeline::DemoConfig{},
                                              serve::EnginePolicy::kOffloadLayers);
      span_names.clear();
      for (size_t i = 0; i < cfg.stages.size(); ++i) {
        auto& st = cfg.stages[i];
        span_names.push_back(stage_span_name(net, i));
        if (st.uses_engine) engine_stage = static_cast<int64_t>(i);
        st.work = [inner = std::move(st.work), name = span_names.back(), &tc,
                   &sh, s, i](video::Frame& f) {
          {
            telemetry::TraceSpan span(&tc, name, s, f.sequence);
            inner(f);
          }
          if (i == 0) {
            std::lock_guard lock(sh.mu);
            ++sh.started;
            sh.cv.notify_one();
          }
        };
      }
      cfg.deliver = [&sh, s](video::Frame&& f) {
        const auto now = Clock::now();
        const bool ok = detections_well_formed(f.detections);
        std::lock_guard lock(sh.mu);
        auto& sub = sh.submitted[static_cast<size_t>(s)];
        const auto it = sub.find(f.sequence);
        const bool in_seq = it != sub.end() &&
                            f.sequence == sh.next_sequence[static_cast<size_t>(s)];
        if (in_seq && ok) {
          ++sh.in_order[static_cast<size_t>(s)];
        } else {
          ++sh.bad[static_cast<size_t>(s)];
        }
        sh.next_sequence[static_cast<size_t>(s)] = f.sequence + 1;
        if (it != sub.end()) {
          sh.deliveries.push_back({now, ms_between(it->second, now),
                                   static_cast<int64_t>(f.detections.size())});
          sub.erase(it);
        }
        if (f.sequence == 0) sh.first[static_cast<size_t>(s)] = std::move(f);
        sh.cv.notify_one();
      };
      server->open_session(std::move(cfg));
    }
  };
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    set_up();
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  std::vector<video::SyntheticCamera> cameras;
  cameras.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s)
    cameras.emplace_back(video::CameraConfig{
        .width = 128, .height = 96, .num_objects = 2, .num_classes = 3,
        .seed = args.seed * 1000 + static_cast<uint64_t>(s)});
  std::vector<int64_t> accepted(kSessions, 0);
  int64_t refused = 0;

  // Fills every admission queue; false once a session stops accepting.
  auto top_up = [&] {
    for (int s = 0; s < kSessions; ++s) {
      while (server->queue_depth(s) < kQueueCapacity) {
        video::Frame f;
        {
          telemetry::TraceSpan span(&tc, "video.read", s, -1);
          f = cameras[static_cast<size_t>(s)].read_frame();
        }
        const int64_t seq = f.sequence;
        {
          std::lock_guard lock(sh.mu);
          sh.submitted[static_cast<size_t>(s)][seq] = Clock::now();
        }
        tc.instant("serve.submit", s, seq);
        const auto res = server->submit(s, std::move(f));
        if (res != serve::ServeResult::kAccepted) {
          std::fprintf(stderr, "serve4_128: session %d refused frame %lld\n",
                       s, static_cast<long long>(seq));
          ++refused;
          return false;
        }
        ++accepted[static_cast<size_t>(s)];
      }
    }
    return true;
  };
  // Keeps the queues full until `until` (or until `frames` delivered).
  auto drive = [&](Clock::time_point until, int64_t frames) {
    std::unique_lock lock(sh.mu);
    for (;;) {
      lock.unlock();
      const bool open = top_up();
      lock.lock();
      if (!open || Clock::now() >= until ||
          static_cast<int64_t>(sh.deliveries.size()) >= frames)
        return;
      const int64_t seen = sh.started;
      sh.cv.wait_until(lock, until, [&] { return sh.started != seen; });
    }
  };

  server->start();
  const auto far = Clock::now() + std::chrono::seconds(120);
  drive(far, kWarmupFrames);

  const auto seconds = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.trace ? args.seconds / 2 : args.seconds));
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds();
  drive(t0 + seconds, INT64_MAX);
  const auto t1 = Clock::now();
  const double cpu1 = cpu_seconds();
  const double rss = peak_rss_mb();
  Clock::time_point t2 = t1;
  if (args.trace) {
    tc.set_enabled(true);
    drive(t1 + seconds, INT64_MAX);
    tc.set_enabled(false);
    t2 = Clock::now();
  }
  server->drain();
  server->stop();

  // Frame accounting: everything accepted was delivered, in order.
  int64_t delivered_ok = 0;
  for (int s = 0; s < kSessions; ++s) {
    const auto su = static_cast<size_t>(s);
    const bool ok = server->delivered(s) == accepted[su] &&
                    sh.in_order[su] == accepted[su] && sh.bad[su] == 0 &&
                    !server->quarantined(s);
    r.check(ok, "serve4_128 session " + std::to_string(s) +
                    " accounting: accepted " + std::to_string(accepted[su]) +
                    ", delivered in order " + std::to_string(sh.in_order[su]));
    delivered_ok += sh.in_order[su];
    r.attempted += accepted[su];
  }
  r.attempted += refused;
  r.failed = r.attempted - delivered_ok;
  const double total_delivered = static_cast<double>(sh.deliveries.size());
  double rejected = 0.0;
  for (int s = 0; s < kSessions; ++s)
    rejected += static_cast<double>(server->rejected(s));

  const auto& acc = hetero_accelerator(*nets.front());
  const Window timed = window(sh.deliveries, t0, t1);
  if (!args.trace) {
    r.add("fps", timed.fps, "frames/s");
    r.add("latency_ms_p50", quantile(timed.latency_ms, 0.5), "ms");
    r.add("latency_ms_p90", quantile(timed.latency_ms, 0.9), "ms");
    r.add("setup_s", quantile(setups, 0.5), "s");
    r.add("peak_rss_mb", rss, "MB");
    r.add("cpu_ms_per_frame",
          1e3 * (cpu1 - cpu0) / static_cast<double>(timed.frames), "ms");
    r.add("modeled_hidden_ms", modeled_hidden_ms(acc), "modeled_ms");
  }

  // Golden check: the first frame of every session.
  const auto golden = build_golden_w1a3(kSize);
  for (int s = 0; s < kSessions; ++s) {
    const auto& f = sh.first[static_cast<size_t>(s)];
    bool same = f.has_value();
    if (same) {
      const Tensor& g = golden->forward(f->boxed);
      same = same_bits(g, f->features) &&
             same_detections(decode_nms_camera(*golden, g, f->image.shape().width(),
                                               f->image.shape().height()),
                             f->detections) &&
             detections_in_unit_square(decode_nms(*golden, g));
    }
    r.check(same, "serve4_128 session " + std::to_string(s) +
                      " first frame vs CPU golden W1A3 network");
    if (!same) ++r.failed;
  }
  if (!args.trace) return r;

  // Per-layer numbers from the traced window.
  const auto ev = tc.snapshot();
  const Window traced = window(sh.deliveries, t1, t2);
  struct FrameSpans {
    double submit = -1.0;
    std::map<std::string, std::pair<double, double>> stage;  // start, end
  };
  std::map<std::pair<int64_t, int64_t>, FrameSpans> frames;
  for (const auto& e : ev) {
    if (e.frame < 0) continue;
    auto& fs = frames[{e.session, e.frame}];
    if (e.phase == telemetry::TracePhase::kInstant)
      fs.submit = e.ts_ms;
    else if (e.phase == telemetry::TracePhase::kComplete)
      fs.stage[std::string(e.name_view())] = {e.ts_ms, e.ts_ms + e.dur_ms};
  }
  const std::string engine = span_names[static_cast<size_t>(engine_stage)];
  const std::string before_engine =
      span_names[static_cast<size_t>(engine_stage - 1)];
  std::vector<double> queue_wait, engine_wait, cpu_stage;
  double engine_busy = 0.0;
  for (const auto& [key, fs] : frames) {
    if (fs.stage.size() != span_names.size()) continue;  // window edges
    if (fs.submit >= 0.0)
      queue_wait.push_back(fs.stage.at(span_names[0]).first - fs.submit);
    engine_wait.push_back(fs.stage.at(engine).first -
                          fs.stage.at(before_engine).second);
    double cpu = 0.0;
    for (const auto& [name, se] : fs.stage)
      if (name != engine) cpu += se.second - se.first;
    cpu_stage.push_back(cpu);
  }
  for (double d : span_ms(ev, engine)) engine_busy += d;

  std::map<std::string, double> ops;
  for (int64_t i = 0; i < nets.front()->num_layers(); ++i)
    ops[stage_span_name(*nets.front(), static_cast<size_t>(i) + 2)] =
        static_cast<double>(nets.front()->layer(i).ops().ops);
  report_trace(ev, ops,
               args.out_dir + "/trace-serve4_128-seed" +
                   std::to_string(args.seed) + ".json");

  std::map<std::string, double> v;
  auto med = [&](const std::string& span) {
    return quantile(span_ms(ev, span), 0.5);
  };
  for (const char* layer : {"video.read", "data.letterbox", "gemm.layer0",
                            "offload.hidden", "gemm.head", "nn.region",
                            "detect.decode_nms"})
    v[std::string(layer) + "_ms"] = med(layer);
  v["gemm.layer0_gops"] = ops["gemm.layer0"] / (v["gemm.layer0_ms"] * 1e6);
  for (int64_t k = 0; k < acc.num_layers(); ++k)
    v["fabric.modeled_cycles." + std::to_string(k)] =
        static_cast<double>(acc.layer_perf(k).total_cycles());
  v["detect.detections"] = static_cast<double>(traced.detections) /
                           static_cast<double>(traced.frames);
  v["serve.queue_wait_ms"] = quantile(queue_wait, 0.5);
  v["serve.engine_wait_ms"] = quantile(engine_wait, 0.5);
  v["serve.engine_busy_ms"] = med(engine);
  v["serve.engine_busy_share"] = engine_busy / ms_between(t1, t2);
  v["serve.cpu_stage_ms"] = quantile(cpu_stage, 0.5);
  v["serve.rejected_per_frame"] = rejected / total_delivered;
  v["serve.grants_per_frame"] =
      static_cast<double>(server->arbiter().grants()) / total_delivered;
  v["telemetry.trace_overhead_pct"] = 100.0 * (timed.fps - traced.fps) / timed.fps;
  add_per_layer(r, v);
  return r;
}

}  // namespace framebench
