// demo64_float: the `tincy demo` Fig. 5 pipeline. The float Tincy YOLO
// network (CpuProfile::kOptimized) at 64x64 fed by a 128x96 camera,
// pipeline::Pipeline with 4 workers driven directly through
// make_demo_stages with the benchmark's own source and sink hooks. No
// fabric and no offload: per-job scheduling cost is a visible share here.

#include <cmath>
#include <cstdio>
#include <mutex>

#include "common.hpp"
#include "perf/stage_times.hpp"
#include "pipeline/demo.hpp"
#include "pipeline/pipeline.hpp"
#include "video/camera.hpp"

namespace framebench {

using namespace tincy;

namespace {

constexpr int kSize = 64;
constexpr int kWorkers = 4;
constexpr int64_t kWarmupFrames = 64;
constexpr int64_t kSamples = 4;  ///< frames re-run sequentially per run

/// What the source and sink hooks record; guarded by mu.
struct Shared {
  std::mutex mu;
  std::vector<Clock::time_point> pulled;  ///< by camera sequence
  int64_t next_sequence = 0;
  int64_t in_order = 0;  ///< delivered in sequence and well formed
  std::vector<double> latency_ms;  ///< current phase
  int64_t detections = 0;          ///< current phase
  int64_t sample_every = 0;        ///< 0: keep no samples
  std::vector<video::Frame> samples;
};

}  // namespace

Result run_demo64_float(const Args& args) {
  Result r;
  telemetry::TraceCollector tc(1 << 15);  // enabled only in a traced phase
  Shared sh;
  video::SyntheticCamera camera({.width = 128,
                                 .height = 96,
                                 .num_objects = 2,
                                 .num_classes = 3,
                                 .seed = args.seed});

  std::unique_ptr<nn::Network> net;
  std::unique_ptr<pipeline::Pipeline> pipe;
  auto set_up = [&] {
    pipe.reset();
    net = build_float_demo(kSize);
    pipeline::PipelineOptions opts;
    opts.stages = pipeline::make_demo_stages(*net, pipeline::DemoConfig{});
    for (size_t i = 0; i < opts.stages.size(); ++i) {
      auto& st = opts.stages[i];
      st.work = [inner = std::move(st.work),
                 name = stage_span_name(*net, i), &tc](video::Frame& f) {
        telemetry::TraceSpan span(&tc, name, 0, f.sequence);
        inner(f);
      };
    }
    opts.source = [&] {
      video::Frame f;
      {
        telemetry::TraceSpan span(&tc, "video.read", 0, -1);
        f = camera.read_frame();
      }
      std::lock_guard lock(sh.mu);
      sh.pulled.resize(static_cast<size_t>(f.sequence) + 1);
      sh.pulled[static_cast<size_t>(f.sequence)] = Clock::now();
      return f;
    };
    opts.sink = [&](const video::Frame& f) {
      const auto now = Clock::now();
      const bool ok = detections_well_formed(f.detections);
      std::lock_guard lock(sh.mu);
      if (ok && f.sequence == sh.next_sequence) ++sh.in_order;
      sh.next_sequence = f.sequence + 1;
      sh.latency_ms.push_back(
          ms_between(sh.pulled[static_cast<size_t>(f.sequence)], now));
      sh.detections += static_cast<int64_t>(f.detections.size());
      if (sh.sample_every > 0 && f.sequence % sh.sample_every == 0 &&
          static_cast<int64_t>(sh.samples.size()) < kSamples)
        sh.samples.push_back(f);
    };
    opts.num_workers = kWorkers;
    pipe = std::make_unique<pipeline::Pipeline>(std::move(opts));
  };
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    set_up();
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  struct Phase {
    int64_t frames = 0;
    double wall_ms = 0.0;
    double cpu_s = 0.0;
    std::vector<double> latency_ms;
    int64_t detections = 0;
    double fps() const { return 1e3 * static_cast<double>(frames) / wall_ms; }
  };
  auto run_phase = [&](int64_t frames) {
    {
      std::lock_guard lock(sh.mu);
      sh.latency_ms.clear();
      sh.detections = 0;
    }
    Phase p;
    p.frames = frames;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    pipe->run(frames);
    p.wall_ms = ms_between(t0, Clock::now());
    p.cpu_s = cpu_seconds() - cpu0;
    std::lock_guard lock(sh.mu);
    p.latency_ms = sh.latency_ms;
    p.detections = sh.detections;
    return p;
  };

  run_phase(kWarmupFrames);
  const Phase warm = run_phase(2 * kWarmupFrames);  // the rate estimate
  const double share = args.trace ? 0.5 : 1.0;
  const auto frames = std::max<int64_t>(
      16, std::llround(warm.fps() * args.seconds * share));
  {
    std::lock_guard lock(sh.mu);
    sh.sample_every = std::max<int64_t>(1, frames / kSamples);
  }
  const Phase timed = run_phase(frames);
  const double rss = peak_rss_mb();
  Phase traced;
  if (args.trace) {
    tc.set_enabled(true);
    traced = run_phase(frames);
    tc.set_enabled(false);
  }

  const int64_t pulled = static_cast<int64_t>(sh.pulled.size());
  r.attempted = pulled;
  r.failed = pulled - sh.in_order;
  r.check(r.failed == 0, "demo64_float frames delivered in order, well formed");

  // Pipelined frames must equal a sequential forward of the same input.
  r.check(!sh.samples.empty(), "demo64_float kept samples");
  for (const video::Frame& f : sh.samples) {
    const Tensor out = net->forward(f.boxed);
    const bool same =
        same_bits(out, f.features) &&
        same_detections(decode_nms_camera(*net, out, f.image.shape().width(),
                                          f.image.shape().height()),
                        f.detections) &&
        detections_in_unit_square(decode_nms(*net, out));
    r.check(same, "demo64_float frame " + std::to_string(f.sequence) +
                      " pipelined vs sequential Network::forward");
    if (!same) ++r.failed;
  }

  if (!args.trace) {
    r.add("fps", timed.fps(), "frames/s");
    r.add("latency_ms_p50", quantile(timed.latency_ms, 0.5), "ms");
    r.add("latency_ms_p90", quantile(timed.latency_ms, 0.9), "ms");
    r.add("setup_s", quantile(setups, 0.5), "s");
    r.add("peak_rss_mb", rss, "MB");
    r.add("cpu_ms_per_frame",
          1e3 * timed.cpu_s / static_cast<double>(timed.frames), "ms");
    r.add("modeled_hidden_ms",
          perf::model_stage_times(*net, perf::ZynqPlatform{},
                                  perf::FirstLayerImpl::kSpecAcc16,
                                  perf::HiddenImpl::kGeneric)
              .hidden_layers_ms,
          "modeled_ms");
    return r;
  }

  const auto ev = tc.snapshot();
  std::map<std::string, double> ops;  // per call: mean over same-named layers
  std::map<std::string, int> layers;
  for (int64_t i = 0; i < net->num_layers(); ++i) {
    const std::string name = stage_span_name(*net, static_cast<size_t>(i) + 2);
    ops[name] += static_cast<double>(net->layer(i).ops().ops);
    ++layers[name];
  }
  for (auto& [name, o] : ops) o /= layers[name];
  report_trace(ev, ops,
               args.out_dir + "/trace-demo64_float-seed" +
                   std::to_string(args.seed) + ".json");

  std::map<std::string, double> v;
  const auto n = static_cast<double>(traced.frames);
  auto med = [&](const std::string& span) {
    return quantile(span_ms(ev, span), 0.5);
  };
  for (const char* layer : {"video.read", "data.letterbox", "gemm.layer0",
                            "gemm.head", "nn.region", "detect.decode_nms"})
    v[std::string(layer) + "_ms"] = med(layer);
  v["gemm.layer0_gops"] = ops["gemm.layer0"] / (v["gemm.layer0_ms"] * 1e6);
  v["detect.detections"] = static_cast<double>(traced.detections) / n;
  double busy = 0.0;
  for (const auto& e : ev)
    if (e.phase == telemetry::TracePhase::kComplete && e.frame >= 0)
      busy += e.dur_ms;
  v["pipeline.busy_ms_per_frame"] = busy / n;
  v["pipeline.worker_busy_share"] = busy / (kWorkers * traced.wall_ms);
  v["pipeline.wait_ms_per_frame"] = mean(traced.latency_ms) - busy / n;
  double hidden = 0.0;
  for (double d : span_ms(ev, "gemm.hidden")) hidden += d;
  v["gemm.hidden_ms"] = hidden / n;
  v["telemetry.trace_overhead_pct"] =
      100.0 * (timed.fps() - traced.fps()) / timed.fps();
  add_per_layer(r, v);
  return r;
}

}  // namespace framebench
