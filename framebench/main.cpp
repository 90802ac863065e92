// Frame benchmark binary: runs one workload for a fixed time and
// prints one JSON result object as the last line of stdout.
//
//   framebench --workload frame416|serve4_128|demo64_float --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// Exit codes: 0 ok, 1 runtime error, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"
#include "gemm/kernels.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: framebench --workload frame416|serve4_128|demo64_float "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--git-sha SHA]\n");
  return 2;
}

bool cpu_has(const char* feature) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (std::string(feature) == "avx2") return __builtin_cpu_supports("avx2");
  if (std::string(feature) == "popcnt") return __builtin_cpu_supports("popcnt");
  if (std::string(feature) == "avx512_vpopcntdq")
    return __builtin_cpu_supports("avx512vpopcntdq");
#endif
  (void)feature;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  framebench::Args args;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || args.seconds <= 0.0 || argc % 2 == 0) return usage();

  const char* kernel =
      tincy::gemm::kernel_name(tincy::gemm::resolve_kernel(tincy::gemm::Kernel::kAuto));
  char meta[512];
  std::snprintf(meta, sizeof meta,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"git_sha\": \"%s\", \"cpu_flags\": "
                "{\"avx2\": %d, \"avx512_vpopcntdq\": %d, \"popcnt\": %d}, "
                "\"gemm_kernel\": \"%s\"}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, git_sha.c_str(), cpu_has("avx2") ? 1 : 0,
                cpu_has("avx512_vpopcntdq") ? 1 : 0, cpu_has("popcnt") ? 1 : 0,
                kernel);
  std::fprintf(stderr, "framebench run: %s\n", meta);

  framebench::Result result;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (args.workload == "frame416") {
      result = framebench::run_frame416(args);
    } else if (args.workload == "serve4_128") {
      result = framebench::run_serve4_128(args);
    } else if (args.workload == "demo64_float") {
      result = framebench::run_demo64_float(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "framebench: %s\n", e.what());
    return 1;
  }

  const std::string json = result.to_json();
  const auto record = std::filesystem::path(args.out_dir) / "runs" /
                      (args.workload + "-seed" + std::to_string(args.seed) +
                       "-trace" + (args.trace ? "1" : "0") + ".json");
  std::filesystem::create_directories(record.parent_path());
  std::ofstream(record) << "{\"run\": " << meta << ", \"result\": " << json
                        << "}\n";
  std::printf("%s\n", json.c_str());
  return 0;
}
