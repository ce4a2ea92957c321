// Common interface of the activation quantizers compared in the paper.
//
// Accuracy experiments only need fake quantization (quantize-dequantize in
// one step); the accelerator simulator additionally needs the true encoded
// form, which MXINT/MX-OPAL expose via encode()/decode() in their own
// headers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

namespace opal {

class Quantizer {
 public:
  virtual ~Quantizer() = default;

  /// Human-readable scheme name ("MinMax", "MXINT4", "MX-OPAL4", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Applies quantize-then-dequantize elementwise; in and out may be the
  /// same span.
  ///
  /// Contract: implementations must be const in the strong sense — no
  /// mutable members, no lazily-initialized caches, no shared scratch.
  /// PreparedModel shares one quantizer instance across every concurrently
  /// decoding sequence, so quantize_dequantize must be safe to call from
  /// multiple threads at once (all in-tree implementations are pure
  /// functions of (in, format)).
  ///
  /// MXINT and MX-OPAL fake quantization runs on the serving hot path (7
  /// sites per decoder row per layer), so it is fused: one in-place,
  /// two-pass block routine (mx_quantize_dequantize in mx_opal.h) that is
  /// bitwise equal to decode(encode(in)) and allocates nothing once a
  /// thread has seen its largest size. Its per-block plan lives in
  /// thread-local grow-only scratch, which no other thread touches.
  virtual void quantize_dequantize(std::span<const float> in,
                                   std::span<float> out) const = 0;

  /// Exact storage footprint in bits for `count` elements in this format.
  [[nodiscard]] virtual std::size_t storage_bits(std::size_t count) const = 0;
};

using QuantizerPtr = std::unique_ptr<Quantizer>;

}  // namespace opal
