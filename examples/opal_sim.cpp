// opal_sim: command-line front end to the device-level simulator.
//
//   opal_sim [model] [device] [seq_len] [n_tokens]
//     model:   7b | 13b | 70b | opt6.7b | opt13b      (default 70b)
//     device:  bf16 | owq | opal47 | opal35           (default opal47)
//     seq_len: starting KV length, >= 1               (default 1024)
//     n_tokens: tokens to decode (averaged), >= 1     (default 16)
//
// Prints the per-token latency/energy report plus the device's core area,
// buffers, and Table-3-style breakdown — the numbers a deployment study
// would start from. An unknown model or device, or a count that is not a
// positive decimal integer, exits with status 2.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/device.h"

namespace {

opal::ModelConfig parse_model(const std::string& name) {
  if (name == "7b") return opal::llama2_7b();
  if (name == "13b") return opal::llama2_13b();
  if (name == "70b") return opal::llama2_70b();
  if (name == "opt6.7b") return opal::opt_6_7b();
  if (name == "opt13b") return opal::opt_13b();
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  std::exit(2);
}

opal::DeviceConfig parse_device(const std::string& name) {
  if (name == "bf16") return opal::make_bf16_device();
  if (name == "owq") return opal::make_owq_device(4);
  if (name == "opal47") return opal::make_opal_device(4, 7, 4);
  if (name == "opal35") return opal::make_opal_device(3, 5, 3);
  std::fprintf(stderr, "unknown device '%s'\n", name.c_str());
  std::exit(2);
}

std::size_t parse_count(const char* what, const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value == 0) {
    std::fprintf(stderr, "%s must be a positive integer, got '%s'\n", what,
                 text.c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opal;
  const auto model = parse_model(argc > 1 ? argv[1] : "70b");
  const auto device = parse_device(argc > 2 ? argv[2] : "opal47");
  const std::size_t seq = parse_count("seq_len", argc > 3 ? argv[3] : "1024");
  const std::size_t n_tokens =
      parse_count("n_tokens", argc > 4 ? argv[4] : "16");

  std::printf("model  : %s (%zu layers, d_model %zu, d_ffn %zu, ~%.1fB "
              "params)\n",
              model.name.c_str(), model.n_layers, model.d_model, model.d_ffn,
              static_cast<double>(model.param_count()) / 1e9);
  std::printf("device : %s  (weight %db, act %d/%db, %zu core(s))\n",
              device.name.c_str(), device.weight_bits, device.act.low,
              device.act.high, device.n_cores);
  std::printf("buffers: weight %zu KB, activation %zu KB  |  core area "
              "%.3f mm^2\n",
              device.weight_buffer_bytes() / 1024,
              device.act_buffer_bytes() / 1024, device_core_area_mm2(device));

  const auto report = simulate_generation(device, model, seq, n_tokens);
  std::printf("\nper-token averages over %zu decode steps from KV length "
              "%zu:\n", n_tokens, seq);
  std::printf("  latency           %10.3f s\n", report.latency_s);
  std::printf("  core energy       %10.3f J\n", report.core_energy_j);
  std::printf("  memory access     %10.3f J\n", report.mem_access_j);
  std::printf("  weight-mem leak   %10.3f J\n", report.weight_leak_j);
  std::printf("  act-mem leak      %10.3f J\n", report.act_leak_j);
  std::printf("  total             %10.3f J\n", report.total_j());
  std::printf("  MACs              %zu (%.1f%% on INT units)\n",
              report.total_macs, 100.0 * report.int_mac_fraction);

  // Bottleneck analysis: the three slowest ops of one token.
  auto trace = trace_token(device, model, seq);
  std::partial_sort(trace.begin(), trace.begin() + std::min<std::size_t>(
                                       3, trace.size()),
                    trace.end(),
                    [](const OpTraceEntry& a, const OpTraceEntry& b) {
                      return a.latency_s > b.latency_s;
                    });
  std::printf("\nslowest ops of one token:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(3, trace.size()); ++i) {
    const auto& e = trace[i];
    std::printf("  %-18s %8.2f ms  %s\n", e.name.c_str(),
                e.latency_s * 1e3, e.dram_bound ? "(DRAM-bound)"
                                                : "(compute-bound)");
  }
  return 0;
}
