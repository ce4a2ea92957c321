#include "common/trace.h"

#include <cstdlib>
#include <cstring>
#include <ostream>

namespace opal {

std::string to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kAdmit:
      return "admit";
    case TraceEventKind::kPrefixHit:
      return "prefix_hit";
    case TraceEventKind::kChunk:
      return "chunk";
    case TraceEventKind::kDecode:
      return "decode";
    case TraceEventKind::kSpecBurst:
      return "spec_burst";
    case TraceEventKind::kBudgetShrink:
      return "budget_shrink";
    case TraceEventKind::kPreempt:
      return "preempt";
    case TraceEventKind::kEvict:
      return "evict";
    case TraceEventKind::kFinish:
      return "finish";
    case TraceEventKind::kStep:
      return "step";
  }
  return "?";
}

bool Tracer::env_enabled() {
  const char* v = std::getenv("OPAL_TRACE");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled || env_enabled()),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) ring_.reserve(capacity == 0 ? 1 : capacity);
}

std::uint64_t Tracer::now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::emit(TraceEvent event) {
  if (!enabled_) return;
  if (event.ts_us == 0) event.ts_us = now_us();
  if (ring_.size() < ring_.capacity()) {
    ring_.push_back(event);
  } else {
    // Oldest-first overwrite loses an event to the exports: account for it
    // so write_step_trace's header can flag an incomplete trace.
    ++truncated_;
    if (ring_[head_].kind == TraceEventKind::kStep) ++dropped_steps_;
    ring_[head_] = event;
    head_ = (head_ + 1) % ring_.size();
  }
  ++total_;
}

std::size_t Tracer::size() const { return ring_.size(); }

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  truncated_ = 0;
  dropped_steps_ = 0;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) out << ",";
    first = false;
    const bool complete = e.dur_us > 0;
    const std::uint64_t start = complete ? e.ts_us - e.dur_us : e.ts_us;
    out << "\n  {\"name\": \"" << to_string(e.kind) << "\", \"ph\": \""
        << (complete ? "X" : "i") << "\", \"ts\": " << start
        << ", \"pid\": 1, \"tid\": " << e.request;
    if (complete) {
      out << ", \"dur\": " << e.dur_us;
    } else {
      out << ", \"s\": \"t\"";
    }
    out << ", \"args\": {\"step\": " << e.step << ", \"a\": " << e.a
        << ", \"b\": " << e.b << ", \"c\": " << e.c << ", \"d\": " << e.d
        << "}}";
  }
  // Ring-loss accounting as Chrome's free-form metadata block, so a viewer
  // (or a consumer script) can tell a complete capture from a truncated
  // one without the step-trace export.
  out << "\n], \"otherData\": {\"truncated_events\": " << truncated_
      << ", \"dropped_steps\": " << dropped_steps_
      << ", \"total_emitted\": " << total_ << "}}\n";
}

void Tracer::write_step_trace(std::ostream& out) const {
  const std::vector<TraceEvent> all = events();
  // Self-describing header (schema table in trace.h): the producing model's
  // dims + KV layout, and the ring-loss counters a replay checks to detect
  // an incomplete trace.
  out << "{\"schema\": \"opal.step_trace/v2\",\n"
      << " \"model\": {\"n_layers\": " << info_.n_layers
      << ", \"d_model\": " << info_.d_model
      << ", \"n_heads\": " << info_.n_heads
      << ", \"d_ffn\": " << info_.d_ffn << ", \"vocab\": " << info_.vocab
      << "},\n"
      << " \"kv\": {\"mode\": \"" << info_.kv_mode
      << "\", \"block_size\": " << info_.kv_block_size
      << ", \"bits_per_entry\": " << info_.kv_bits_per_entry << "},\n"
      << " \"dropped_steps\": " << dropped_steps_
      << ", \"truncated_events\": " << truncated_ << ",\n"
      << " \"steps\": [";
  // Per-sequence events of a step precede its kStep record in emission
  // order, so a single forward scan groups them.
  std::vector<const TraceEvent*> pending;
  bool first = true;
  for (const TraceEvent& e : all) {
    switch (e.kind) {
      case TraceEventKind::kChunk:
      case TraceEventKind::kDecode:
      case TraceEventKind::kSpecBurst:
      case TraceEventKind::kPrefixHit:
        pending.push_back(&e);
        break;
      case TraceEventKind::kStep: {
        if (!first) out << ",";
        first = false;
        out << "\n  {\"step\": " << e.step << ", \"dur_us\": " << e.dur_us
            << ", \"batch\": " << e.a << ", \"rows\": " << e.b
            << ", \"blocks_in_use\": " << e.c << ", \"blocks_free\": " << e.d
            << ", \"seqs\": [";
        bool seq_first = true;
        for (const TraceEvent* s : pending) {
          if (s->step != e.step) continue;  // orphan from an evicted step
          if (!seq_first) out << ", ";
          seq_first = false;
          // kPrefixHit carries (positions restored, columns) in (a, b) —
          // normalize it to the seqs schema: rows = restores, pos 0.
          const bool hit = s->kind == TraceEventKind::kPrefixHit;
          out << "{\"request\": " << s->request << ", \"kind\": \""
              << to_string(s->kind) << "\", \"pos\": " << (hit ? 0 : s->b)
              << ", \"rows\": " << s->a
              << ", \"kv_bytes\": " << (hit ? 0 : s->c)
              << ", \"dur_us\": " << s->dur_us;
          if (s->kind == TraceEventKind::kSpecBurst) {
            out << ", \"committed\": " << s->d;
          }
          out << "}";
        }
        out << "]}";
        pending.clear();
        break;
      }
      default:
        break;  // lifecycle events are not part of the step replay record
    }
  }
  out << "\n]}\n";
}

}  // namespace opal
