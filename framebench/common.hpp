#pragma once
// Shared pieces of the frame benchmark: the result record printed as the
// last stdout line, process resource probes, the W1A3 model builders, the
// output checks and the trace post-processing.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "detect/box.hpp"
#include "fabric/accelerator.hpp"
#include "nn/network.hpp"
#include "telemetry/trace.hpp"

namespace framebench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where traces and binparams are written
};

/// What one run reports: correctness, frame accounting and named metrics.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  std::string to_json() const;
};

// --- statistics and process probes ------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// User + system CPU seconds of this process so far.
double cpu_seconds();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// --- the model -------------------------------------------------------

/// Weight seed of the one model every workload serves. Camera content is
/// what --seed varies; the model stays fixed.
constexpr uint64_t kWeightSeed = 2018;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
constexpr float kDetectThreshold = 0.3f;  ///< DemoConfig defaults
constexpr float kNmsIou = 0.45f;

/// The CPU golden network: zoo Tincy YOLO W1A3 (first16_acc16 layer 0,
/// scalar quant_reference hidden convs, lowp output conv, region).
std::unique_ptr<tincy::nn::Network> build_golden_w1a3(int size);

/// Exports the golden network's hidden stack (layers 1 .. L-3) as a
/// binparam directory and registers its subtopology cfg; returns the
/// golden network, whose remaining weights load_hetero_w1a3 copies.
std::unique_ptr<tincy::nn::Network> export_w1a3_model(
    int size, const std::string& binparam_dir);

/// One instance of the heterogeneous network in Fig. 4 form: the golden
/// layer 0 conv, an [offload] library=fabric.so layer loaded from the
/// binparams in `binparam_dir`, the golden output conv and region.
std::unique_ptr<tincy::nn::Network> load_hetero_w1a3(
    const tincy::nn::Network& golden, const std::string& binparam_dir);

/// Index of the [offload] layer in load_hetero_w1a3's network.
constexpr int64_t kOffloadLayer = 1;
const tincy::fabric::QnnAccelerator& hetero_accelerator(
    tincy::nn::Network& net);
/// Modeled ZU3EG time of one frame through the accelerator's stages.
double modeled_hidden_ms(const tincy::fabric::QnnAccelerator& acc);

/// The float Tincy YOLO network of the Fig. 5 demo (kOptimized).
std::unique_ptr<tincy::nn::Network> build_float_demo(int size);

// --- output checks ---------------------------------------------------

bool same_bits(const tincy::Tensor& a, const tincy::Tensor& b);
bool same_detections(const std::vector<tincy::detect::Detection>& a,
                     const std::vector<tincy::detect::Detection>& b);
/// Decode + NMS as the demo's object-boxing stage does, in network space.
std::vector<tincy::detect::Detection> decode_nms(
    const tincy::nn::Network& net, const tincy::Tensor& features);
/// Decode + NMS + mapping to camera space, exactly as the demo stage.
std::vector<tincy::detect::Detection> decode_nms_camera(
    const tincy::nn::Network& net, const tincy::Tensor& features,
    int64_t image_w, int64_t image_h);
/// Scores at or above the threshold and no same-class pair overlapping
/// beyond the NMS IoU (IoU is invariant under the letterbox mapping).
bool detections_well_formed(const std::vector<tincy::detect::Detection>& d);
/// As above, plus every box centre and extent inside [0, 1] of the
/// network input (boxes in letterbox space).
bool detections_in_unit_square(
    const std::vector<tincy::detect::Detection>& d);

/// Span name of stage `idx` of make_demo_stages(net) (layout in
/// pipeline/demo.hpp), named after the layer a per-layer metric measures.
std::string stage_span_name(const tincy::nn::Network& net, size_t idx);

// --- traces ----------------------------------------------------------

/// Durations (ms) of the complete spans named `name`.
std::vector<double> span_ms(const std::vector<tincy::telemetry::TraceEvent>& ev,
                            const std::string& name);
/// Writes the Chrome trace and prints the per-layer table (calls, total
/// and self time, ops and achieved GOP/s) to stderr. `ops_per_call` maps
/// span names to their operation count per call.
void report_trace(const std::vector<tincy::telemetry::TraceEvent>& ev,
                  const std::map<std::string, double>& ops_per_call,
                  const std::string& path);

/// Every per-layer metric name the benchmark defines, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Adds the per-layer metrics in `values` and every other per-layer metric
/// as 0: a layer that is not on this workload's path did no work.
void add_per_layer(Result& r, const std::map<std::string, double>& values);

Result run_frame416(const Args& args);
Result run_serve4_128(const Args& args);
Result run_demo64_float(const Args& args);

}  // namespace framebench
