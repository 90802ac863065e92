// frame416: the paper's unit of truth. One stream, one frame in flight: a
// 640x480 synthetic camera frame letterboxed to 416, layer 0 first16_acc16
// on the CPU, the W1A3 hidden stack on the fabric.so offload layer, the
// lowp output conv, region, decode and NMS.

#include <cstdio>
#include <functional>
#include <optional>

#include "common.hpp"
#include "data/image.hpp"
#include "nn/offload_layer.hpp"
#include "quant/thresholds.hpp"
#include "video/camera.hpp"

namespace framebench {

using namespace tincy;

namespace {

constexpr int kSize = 416;

struct FrameOut {
  Tensor boxed;
  Tensor hidden_in;   ///< offload layer input
  Tensor hidden_out;  ///< offload layer output
  Tensor features;
  std::vector<detect::Detection> dets;
  double latency_ms = 0.0;
  double hidden_ms = 0.0;  ///< the offload layer's share of latency_ms
};

/// One closed-loop frame; spans go to `tc` when it is enabled.
FrameOut run_frame(nn::Network& net, video::SyntheticCamera& camera,
                   telemetry::TraceCollector* tc, int64_t fno, bool keep) {
  FrameOut out;
  const auto t0 = Clock::now();
  {
    telemetry::TraceSpan frame_span(tc, "frame", 0, fno);
    video::Frame f;
    {
      telemetry::TraceSpan s(tc, "video.read", 0, fno);
      f = camera.read_frame();
    }
    Tensor boxed;
    {
      telemetry::TraceSpan s(tc, "data.letterbox", 0, fno);
      boxed = data::letterbox(f.image, kSize);
    }
    const Tensor* x = nullptr;
    {
      telemetry::TraceSpan s(tc, "gemm.layer0", 0, fno);
      x = &net.run_layer(0, boxed);
    }
    if (keep) out.hidden_in = *x;
    {
      telemetry::TraceSpan s(tc, "offload.hidden", 0, fno);
      const auto h0 = Clock::now();
      x = &net.run_layer(kOffloadLayer, *x);
      out.hidden_ms = ms_between(h0, Clock::now());
    }
    if (keep) out.hidden_out = *x;
    {
      telemetry::TraceSpan s(tc, "gemm.head", 0, fno);
      x = &net.run_layer(2, *x);
    }
    {
      telemetry::TraceSpan s(tc, "nn.region", 0, fno);
      x = &net.run_layer(3, *x);
    }
    {
      telemetry::TraceSpan s(tc, "detect.decode_nms", 0, fno);
      out.dets = decode_nms(net, *x);
    }
    if (keep) {
      out.boxed = std::move(boxed);
      out.features = *x;
    }
  }
  out.latency_ms = ms_between(t0, Clock::now());
  return out;
}

struct Phase {
  std::optional<FrameOut> first;  ///< the first frame, with its tensors
  std::vector<double> latency_ms;
  double elapsed_ms = 0.0;
  double cpu_s = 0.0;
  int64_t frames = 0;
  int64_t bad_frames = 0;  ///< frames whose detections break a property
  int64_t detections = 0;
  double fps() const { return 1e3 * static_cast<double>(frames) / elapsed_ms; }
  /// Frames per second of frame time alone (excludes `after` hooks).
  double frame_fps() const {
    double busy = 0.0;
    for (double ms : latency_ms) busy += ms;
    return 1e3 * static_cast<double>(frames) / busy;
  }
};

/// Runs whole frames until `seconds` have passed. `after`, if given, sees
/// every frame with its tensors once the frame's timing has ended.
Phase run_phase(nn::Network& net, video::SyntheticCamera& camera,
                telemetry::TraceCollector* tc, double seconds, int64_t& fno,
                const std::function<void(const FrameOut&)>& after = {}) {
  Phase p;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  do {
    FrameOut f = run_frame(net, camera, tc, fno++, p.frames == 0 || after);
    p.bad_frames += detections_in_unit_square(f.dets) ? 0 : 1;
    p.detections += static_cast<int64_t>(f.dets.size());
    p.latency_ms.push_back(f.latency_ms);
    if (after) after(f);
    if (p.frames == 0) p.first = std::move(f);
    ++p.frames;
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
  p.elapsed_ms = ms_between(start, Clock::now());
  p.cpu_s = cpu_seconds() - cpu0;
  return p;
}

}  // namespace

Result run_frame416(const Args& args) {
  Result r;
  const std::string binparams = args.out_dir + "/binparam-416";
  std::unique_ptr<nn::Network> net;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    net.reset();
    const auto t0 = Clock::now();
    net = load_hetero_w1a3(*export_w1a3_model(kSize, binparams), binparams);
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const auto& acc = hetero_accelerator(*net);
  video::SyntheticCamera camera({.width = 640,
                                 .height = 480,
                                 .num_objects = 3,
                                 .num_classes = 3,
                                 .seed = args.seed});
  int64_t fno = 0;
  run_frame(*net, camera, nullptr, fno++, false);  // warm-up
  r.attempted = 1;

  if (!args.trace) {
    Phase p = run_phase(*net, camera, nullptr, args.seconds, fno);
    const double rss = peak_rss_mb();
    r.attempted += p.frames;
    r.failed += p.bad_frames;
    r.check(p.bad_frames == 0, "frame416 detection properties");
    r.add("fps", p.fps(), "frames/s");
    r.add("latency_ms_p50", quantile(p.latency_ms, 0.5), "ms");
    r.add("latency_ms_p90", quantile(p.latency_ms, 0.9), "ms");
    r.add("setup_s", quantile(setups, 0.5), "s");
    r.add("peak_rss_mb", rss, "MB");
    r.add("cpu_ms_per_frame", 1e3 * p.cpu_s / static_cast<double>(p.frames),
          "ms");
    r.add("modeled_hidden_ms", modeled_hidden_ms(acc), "modeled_ms");

    // Golden check of the first timed frame, outside the timed phase.
    const FrameOut& first = *p.first;
    auto golden = build_golden_w1a3(kSize);
    const Tensor& g = golden->forward(first.boxed);
    const bool same = same_bits(g, first.features) &&
                      same_detections(decode_nms(*golden, g), first.dets);
    r.check(same, "frame416 first timed frame vs CPU golden W1A3 network");
    if (!same) ++r.failed;
    return r;
  }

  // Traced run: an untraced half, then a traced half. After each traced
  // frame the fabric stages run one by one on the codes that frame fed the
  // offload layer; offload.wrap_ms subtracts their sum from that frame's
  // offload time, two host times taken back to back.
  const Phase plain = run_phase(*net, camera, nullptr, args.seconds / 2, fno);
  const auto& first = acc.spec(0);
  const quant::UniformActQuant in_q{first.act_bits_in, first.in_scale};
  const auto& last = acc.spec(acc.num_layers() - 1);
  const quant::UniformActQuant out_q{last.act_bits_out, last.out_scale};
  telemetry::TraceCollector tc;
  std::vector<double> stage_sum_ms, wrap_ms;
  auto stage_pass = [&](const FrameOut& f) {
    std::vector<uint8_t> codes(static_cast<size_t>(f.hidden_in.numel()));
    for (int64_t i = 0; i < f.hidden_in.numel(); ++i)
      codes[static_cast<size_t>(i)] = in_q.quantize(f.hidden_in[i]);
    double sum = 0.0;
    for (int64_t k = 0; k < acc.num_layers(); ++k) {
      std::vector<uint8_t> next(
          static_cast<size_t>(acc.spec(k).output_shape().numel()));
      const auto t0 = Clock::now();
      {
        telemetry::TraceSpan s(&tc, "fabric.stage." + std::to_string(k));
        acc.run_layer_batched(k, codes, 1, next);
      }
      sum += ms_between(t0, Clock::now());
      codes = std::move(next);
    }
    bool same = static_cast<int64_t>(codes.size()) == f.hidden_out.numel();
    for (int64_t i = 0; same && i < f.hidden_out.numel(); ++i)
      same = out_q.dequantize(codes[static_cast<size_t>(i)]) == f.hidden_out[i];
    r.check(same, "fabric stages one by one vs the offload layer");
    stage_sum_ms.push_back(sum);
    wrap_ms.push_back(f.hidden_ms - sum);
  };
  tc.set_enabled(true);
  const Phase traced =
      run_phase(*net, camera, &tc, args.seconds / 2, fno, stage_pass);
  tc.set_enabled(false);
  r.attempted += plain.frames + traced.frames;
  r.failed += plain.bad_frames + traced.bad_frames;
  r.check(plain.bad_frames + traced.bad_frames == 0,
          "frame416 detection properties");
  const auto ev = tc.snapshot();

  std::map<std::string, double> ops;
  ops["gemm.layer0"] = static_cast<double>(net->layer(0).ops().ops);
  ops["offload.hidden"] = static_cast<double>(net->layer(1).ops().ops);
  ops["gemm.head"] = static_cast<double>(net->layer(2).ops().ops);
  double hidden_ops = 0.0;
  for (int64_t k = 0; k < acc.num_layers(); ++k) {
    const auto& s = acc.spec(k);
    const auto g = s.conv_geometry();
    const double o = 2.0 * static_cast<double>(g.patch_size() * s.filters *
                                               g.num_patches());
    ops["fabric.stage." + std::to_string(k)] = o;
    hidden_ops += o;
  }
  report_trace(ev, ops,
               args.out_dir + "/trace-frame416-seed" +
                   std::to_string(args.seed) + ".json");

  std::map<std::string, double> v;
  auto med = [&](const char* span) { return quantile(span_ms(ev, span), 0.5); };
  v["video.read_ms"] = med("video.read");
  v["data.letterbox_ms"] = med("data.letterbox");
  v["gemm.layer0_ms"] = med("gemm.layer0");
  v["gemm.layer0_gops"] = ops["gemm.layer0"] / (v["gemm.layer0_ms"] * 1e6);
  v["offload.hidden_ms"] = med("offload.hidden");
  for (int64_t k = 0; k < acc.num_layers(); ++k) {
    const std::string ks = std::to_string(k);
    v["fabric.stage_ms." + ks] = med(("fabric.stage." + ks).c_str());
    v["fabric.modeled_cycles." + ks] =
        static_cast<double>(acc.layer_perf(k).total_cycles());
  }
  v["fabric.hidden_gops"] = hidden_ops / (quantile(stage_sum_ms, 0.5) * 1e6);
  v["offload.wrap_ms"] = quantile(wrap_ms, 0.5);
  v["gemm.head_ms"] = med("gemm.head");
  v["nn.region_ms"] = med("nn.region");
  v["detect.decode_nms_ms"] = med("detect.decode_nms");
  v["detect.detections"] = static_cast<double>(traced.detections) /
                           static_cast<double>(traced.frames);
  v["telemetry.trace_overhead_pct"] =
      100.0 * (plain.frame_fps() - traced.frame_fps()) / plain.frame_fps();
  add_per_layer(r, v);
  return r;
}

}  // namespace framebench
