#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/errors.hpp"
#include "core/rng.hpp"
#include "data/image.hpp"
#include "detect/decode.hpp"
#include "detect/nms.hpp"
#include "nn/builder.hpp"
#include "nn/conv_layer.hpp"
#include "nn/offload_layer.hpp"
#include "nn/region_layer.hpp"
#include "nn/zoo.hpp"
#include "offload/fabric_backend.hpp"
#include "offload/import.hpp"
#include "offload/registration.hpp"

namespace framebench {

using namespace tincy;

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].second.first);
    os << (i ? ", " : "") << "\"" << metrics[i].first
       << "\": {\"value\": " << value << ", \"unit\": \""
       << metrics[i].second.second << "\"}";
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- the model -------------------------------------------------------

namespace {

/// Splits cfg text into its [section] blocks (leading comments dropped).
std::vector<std::string> cfg_sections(const std::string& cfg) {
  std::vector<std::string> sections;
  std::istringstream in(cfg);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '[') sections.emplace_back();
    if (!sections.empty()) sections.back() += line + "\n";
  }
  return sections;
}

std::string zoo_w1a3_cfg(int size) {
  return nn::zoo::tiny_yolo_cfg(nn::zoo::TinyVariant::kTincy,
                                nn::zoo::QuantMode::kW1A3, size,
                                nn::zoo::CpuProfile::kOptimized);
}

std::string hidden_cfg_name(int size) {
  return "framebench-hidden-" + std::to_string(size);
}

void copy_conv(const nn::Layer& from, nn::Layer& to) {
  const auto& src = dynamic_cast<const nn::ConvLayer&>(from);
  auto& dst = dynamic_cast<nn::ConvLayer&>(to);
  dst.weights() = src.weights();
  dst.biases() = src.biases();
  dst.bn_scales() = src.bn_scales();
  dst.bn_mean() = src.bn_mean();
  dst.bn_var() = src.bn_var();
  dst.invalidate_cached_quantization();
}

}  // namespace

std::unique_ptr<nn::Network> build_golden_w1a3(int size) {
  auto net = nn::zoo::build(zoo_w1a3_cfg(size));
  Rng rng(kWeightSeed);
  nn::zoo::randomize(*net, rng);
  return net;
}

std::unique_ptr<nn::Network> export_w1a3_model(int size,
                                               const std::string& binparam_dir) {
  offload::register_standard_backends();
  auto golden = build_golden_w1a3(size);
  const auto sections = cfg_sections(zoo_w1a3_cfg(size));
  const int64_t L = golden->num_layers();
  // sections[0] is [net]; sections[i + 1] built golden layer i.
  TINCY_CHECK(static_cast<int64_t>(sections.size()) == L + 1);
  const Shape hidden_in = golden->layer(0).output_shape();
  std::ostringstream sub;
  sub << "[net]\nwidth=" << hidden_in.width() << "\nheight="
      << hidden_in.height() << "\nchannels=" << hidden_in.channels() << "\n\n";
  for (int64_t i = 1; i <= L - 3; ++i) sub << sections[i + 1] << "\n";
  auto subnet = nn::build_network_from_string(sub.str());
  for (int64_t i = 1; i <= L - 3; ++i)
    if (dynamic_cast<const nn::ConvLayer*>(&golden->layer(i)))
      copy_conv(golden->layer(i), subnet->layer(i - 1));
  offload::export_binparams(*subnet, binparam_dir);
  offload::register_inline_network(hidden_cfg_name(size), sub.str());
  return golden;
}

std::unique_ptr<nn::Network> load_hetero_w1a3(const nn::Network& golden,
                                              const std::string& binparam_dir) {
  const int size = static_cast<int>(golden.input_shape().height());
  const auto sections = cfg_sections(zoo_w1a3_cfg(size));
  const int64_t L = golden.num_layers();
  const Shape hidden_out = golden.layer(L - 3).output_shape();
  std::ostringstream cfg;
  cfg << sections[0] << "\n"
      << sections[1] << "\n"
      << "[offload]\nlibrary=fabric.so\nnetwork=inline:" << hidden_cfg_name(size)
      << "\nweights=" << binparam_dir << "\nheight=" << hidden_out.height()
      << "\nwidth=" << hidden_out.width()
      << "\nchannel=" << hidden_out.channels() << "\n\n"
      << sections[L - 1] << "\n"
      << sections[L] << "\n";
  auto net = nn::build_network_from_string(cfg.str());
  copy_conv(golden.layer(0), net->layer(0));
  copy_conv(golden.layer(L - 2), net->layer(2));
  dynamic_cast<nn::OffloadLayer&>(net->layer(kOffloadLayer))
      .backend()
      .load_weights();
  return net;
}

const fabric::QnnAccelerator& hetero_accelerator(nn::Network& net) {
  auto& layer = dynamic_cast<nn::OffloadLayer&>(net.layer(kOffloadLayer));
  return dynamic_cast<offload::FabricBackend&>(layer.backend()).accelerator();
}

double modeled_hidden_ms(const fabric::QnnAccelerator& acc) {
  double cycles = 0.0;
  for (int64_t k = 0; k < acc.num_layers(); ++k)
    cycles += static_cast<double>(acc.layer_perf(k).total_cycles());
  return cycles / (acc.cycle_model().clock_mhz * 1e3);
}

std::unique_ptr<nn::Network> build_float_demo(int size) {
  auto net = nn::zoo::build(nn::zoo::tiny_yolo_cfg(
      nn::zoo::TinyVariant::kTincy, nn::zoo::QuantMode::kFloat, size,
      nn::zoo::CpuProfile::kOptimized));
  Rng rng(kWeightSeed);
  nn::zoo::randomize(*net, rng);
  return net;
}

// --- output checks ---------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_detections(const std::vector<detect::Detection>& a,
                     const std::vector<detect::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const float fx[] = {x.box.x, x.box.y, x.box.w, x.box.h, x.objectness,
                        x.class_prob};
    const float fy[] = {y.box.x, y.box.y, y.box.w, y.box.h, y.objectness,
                        y.class_prob};
    if (x.class_id != y.class_id || std::memcmp(fx, fy, sizeof fx) != 0)
      return false;
  }
  return true;
}

std::vector<detect::Detection> decode_nms(const nn::Network& net,
                                          const Tensor& features) {
  const auto& region = dynamic_cast<const nn::RegionLayer&>(
      net.layer(net.num_layers() - 1));
  return detect::nms(
      detect::decode_region(features, region.config(), kDetectThreshold),
      kNmsIou);
}

std::vector<detect::Detection> decode_nms_camera(const nn::Network& net,
                                                 const Tensor& features,
                                                 int64_t image_w,
                                                 int64_t image_h) {
  auto dets = decode_nms(net, features);
  for (auto& d : dets)
    data::unletterbox_box(d.box.x, d.box.y, d.box.w, d.box.h, image_w,
                          image_h, net.input_shape().height());
  return dets;
}

bool detections_well_formed(const std::vector<detect::Detection>& d) {
  // The mapping to camera space rescales each axis; IoU is invariant under
  // it up to float rounding, hence the small slack.
  constexpr float kSlack = 1e-5f;
  for (size_t i = 0; i < d.size(); ++i) {
    if (!(d[i].score() >= kDetectThreshold)) return false;
    for (size_t j = i + 1; j < d.size(); ++j)
      if (d[i].class_id == d[j].class_id &&
          detect::iou(d[i].box, d[j].box) > kNmsIou + kSlack)
        return false;
  }
  return true;
}

bool detections_in_unit_square(const std::vector<detect::Detection>& d) {
  for (const auto& x : d) {
    const float v[] = {x.box.x, x.box.y};
    for (float f : v)
      if (!(f >= 0.0f && f <= 1.0f)) return false;
    if (!(x.box.w > 0.0f && x.box.h > 0.0f && std::isfinite(x.box.w) &&
          std::isfinite(x.box.h)))
      return false;
  }
  return detections_well_formed(d);
}

std::string stage_span_name(const nn::Network& net, size_t idx) {
  const int64_t L = net.num_layers();
  const int64_t layer = static_cast<int64_t>(idx) - 2;
  if (idx == 0) return "stage.read_frame";
  if (idx == 1) return "data.letterbox";
  if (layer == L) return "detect.decode_nms";
  if (layer > L) return "video.draw";
  const nn::Layer& l = net.layer(layer);
  if (dynamic_cast<const nn::OffloadLayer*>(&l)) return "offload.hidden";
  if (dynamic_cast<const nn::RegionLayer*>(&l)) return "nn.region";
  if (dynamic_cast<const nn::ConvLayer*>(&l)) {
    if (layer == 0) return "gemm.layer0";
    return layer == L - 2 ? "gemm.head" : "gemm.hidden";
  }
  return "nn." + l.type_name();
}

// --- traces ----------------------------------------------------------

std::vector<double> span_ms(const std::vector<telemetry::TraceEvent>& ev,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& e : ev)
    if (e.phase == telemetry::TracePhase::kComplete && e.name_view() == name)
      out.push_back(e.dur_ms);
  return out;
}

void report_trace(const std::vector<telemetry::TraceEvent>& ev,
                  const std::map<std::string, double>& ops_per_call,
                  const std::string& path) {
  telemetry::write_chrome_trace(ev, path);

  // Self time: a span's duration minus what its direct children on the
  // same thread cover.
  struct Row {
    int64_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  std::map<int32_t, std::vector<const telemetry::TraceEvent*>> by_tid;
  for (const auto& e : ev)
    if (e.phase == telemetry::TracePhase::kComplete)
      by_tid[e.tid].push_back(&e);
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end(), [](auto* a, auto* b) {
      return a->ts_ms != b->ts_ms ? a->ts_ms < b->ts_ms
                                  : a->dur_ms > b->dur_ms;
    });
    std::vector<const telemetry::TraceEvent*> stack;
    for (const auto* s : spans) {
      while (!stack.empty() &&
             s->ts_ms >= stack.back()->ts_ms + stack.back()->dur_ms)
        stack.pop_back();
      if (!stack.empty())
        rows[std::string(stack.back()->name_view())].self_ms -= s->dur_ms;
      Row& r = rows[std::string(s->name_view())];
      ++r.calls;
      r.total_ms += s->dur_ms;
      r.self_ms += s->dur_ms;
      stack.push_back(s);
    }
  }
  std::fprintf(stderr, "%-24s %8s %12s %12s %14s %10s\n", "span", "calls",
               "total_ms", "self_ms", "ops/call", "GOP/s");
  for (const auto& [name, r] : rows) {
    const auto it = ops_per_call.find(name);
    const double ops = it == ops_per_call.end() ? 0.0 : it->second;
    const double gops =
        r.total_ms > 0.0 ? ops * static_cast<double>(r.calls) / (r.total_ms * 1e6)
                         : 0.0;
    std::fprintf(stderr, "%-24s %8" PRId64 " %12.3f %12.3f %14.0f %10.3f\n",
                 name.c_str(), r.calls, r.total_ms, r.self_ms, ops, gops);
  }
  std::fprintf(stderr, "trace written to %s (%zu events)\n", path.c_str(),
               ev.size());
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"video.read_ms", "ms"},
        {"data.letterbox_ms", "ms"},
        {"gemm.layer0_ms", "ms"},
        {"gemm.layer0_gops", "GOP/s"},
        {"offload.hidden_ms", "ms"},
    };
    for (int k = 0; k < 7; ++k)
      n.push_back({"fabric.stage_ms." + std::to_string(k), "ms"});
    n.push_back({"fabric.hidden_gops", "GOP/s"});
    for (int k = 0; k < 7; ++k)
      n.push_back({"fabric.modeled_cycles." + std::to_string(k), "cycles"});
    const std::pair<std::string, std::string> rest[] = {
        {"offload.wrap_ms", "ms"},
        {"gemm.head_ms", "ms"},
        {"nn.region_ms", "ms"},
        {"detect.decode_nms_ms", "ms"},
        {"detect.detections", "count"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.engine_wait_ms", "ms"},
        {"serve.engine_busy_ms", "ms"},
        {"serve.engine_busy_share", "ratio"},
        {"serve.cpu_stage_ms", "ms"},
        {"serve.rejected_per_frame", "count"},
        {"serve.grants_per_frame", "count"},
        {"pipeline.busy_ms_per_frame", "ms"},
        {"pipeline.worker_busy_share", "ratio"},
        {"pipeline.wait_ms_per_frame", "ms"},
        {"gemm.hidden_ms", "ms"},
        {"telemetry.trace_overhead_pct", "%"},
    };
    n.insert(n.end(), std::begin(rest), std::end(rest));
    return n;
  }();
  return names;
}

void add_per_layer(Result& r, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    r.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const auto& m : per_layer_metrics()) known |= m.first == name;
    TINCY_CHECK_MSG(known, "unlisted per-layer metric " << name);
  }
}

}  // namespace framebench
