// Software microbenchmarks (google-benchmark) of the quantizer
// implementations: fused quantize-dequantize against encode-then-decode by
// scheme, bit-width, and tensor size, plus the log2 softmax unit. These
// measure the *simulator's* software cost, not hardware cycles.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "quant/minmax.h"
#include "quant/mx_opal.h"
#include "quant/mxint.h"
#include "softmax/softmax.h"

namespace {

std::vector<float> make_activations(std::size_t n) {
  opal::ActivationModel model(17, n, 0.01f);
  std::vector<float> v(n);
  model.sample(v);
  return v;
}

void BM_MinMaxQuantize(benchmark::State& state) {
  const auto in = make_activations(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(in.size());
  const opal::MinMaxQuantizer quant(128, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    quant.quantize_dequantize(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MinMaxQuantize)
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({65536, 4});

void BM_MxIntQuantize(benchmark::State& state) {
  const auto in = make_activations(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(in.size());
  const opal::MxIntQuantizer quant(128, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    quant.quantize_dequantize(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MxIntQuantize)
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({65536, 4});

void BM_MxOpalQuantize(benchmark::State& state) {
  const auto in = make_activations(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(in.size());
  const opal::MxOpalQuantizer quant(128, static_cast<int>(state.range(1)),
                                    static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    quant.quantize_dequantize(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MxOpalQuantize)
    ->Args({4096, 4, 4})
    ->Args({4096, 4, 8})
    ->Args({4096, 7, 4})
    ->Args({65536, 4, 4});

// The encode-then-decode route the fused quantize_dequantize replaces, at
// the same shapes as BM_MxOpalQuantize.
void BM_MxOpalEncodeDecode(benchmark::State& state) {
  const auto in = make_activations(static_cast<std::size_t>(state.range(0)));
  std::vector<float> out(in.size());
  const opal::MxOpalQuantizer quant(128, static_cast<int>(state.range(1)),
                                    static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    const auto decoded = opal::decode(quant.encode(in));
    std::copy(decoded.begin(), decoded.end(), out.begin());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MxOpalEncodeDecode)
    ->Args({4096, 4, 4})
    ->Args({4096, 4, 8})
    ->Args({4096, 7, 4})
    ->Args({65536, 4, 4});

void BM_MxOpalEncode(benchmark::State& state) {
  const auto in = make_activations(static_cast<std::size_t>(state.range(0)));
  const opal::MxOpalQuantizer quant(128, 4, 4);
  for (auto _ : state) {
    auto qt = quant.encode(in);
    benchmark::DoNotOptimize(qt.blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MxOpalEncode)->Arg(4096)->Arg(65536);

void BM_Log2SoftmaxUnit(benchmark::State& state) {
  opal::Rng rng = opal::make_rng(3);
  std::vector<float> scores(static_cast<std::size_t>(state.range(0)));
  opal::fill_gaussian(rng, scores, 0.0f, 2.0f);
  for (auto _ : state) {
    auto codes =
        opal::log2_softmax_unit(scores, opal::Log2SoftmaxConfig{7});
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Log2SoftmaxUnit)->Arg(128)->Arg(2048);

void BM_SoftmaxReference(benchmark::State& state) {
  opal::Rng rng = opal::make_rng(4);
  std::vector<float> scores(static_cast<std::size_t>(state.range(0)));
  std::vector<float> probs(scores.size());
  opal::fill_gaussian(rng, scores, 0.0f, 2.0f);
  for (auto _ : state) {
    opal::softmax_reference(scores, probs);
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SoftmaxReference)->Arg(128)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
