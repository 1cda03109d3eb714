#include "obs/metrics.hpp"

#include <chrono>
#include <cstdlib>

namespace ht::obs {

namespace {

thread_local SolveMetrics* t_sink = nullptr;

constexpr const char* kStageNames[kNumStages] = {
    "enumeration",     "screen",       "cache_probe",
    "bounds_refute",   "lp_bound",     "csp_dispatch",
    "nogood_propagation", "validation", "sls_search",
};

constexpr const char* kPruneNames[kNumPruneReasons] = {"screen", "cache",
                                                       "bound"};

}  // namespace

const char* stage_name(Stage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

const char* prune_reason_name(PruneReason reason) {
  return kPruneNames[static_cast<std::size_t>(reason)];
}

int bucket_of(long long ns) {
  long long bound = 1'000;  // 1us
  for (int b = 0; b < kNumBuckets - 1; ++b) {
    if (ns < bound) return b;
    bound *= 10;
  }
  return kNumBuckets - 1;
}

void StageStats::add(long long ns, long long n) {
  count += n;
  total_ns += ns;
  ++buckets[static_cast<std::size_t>(bucket_of(ns))];
}

void StageStats::merge(const StageStats& other) {
  count += other.count;
  total_ns += other.total_ns;
  for (int b = 0; b < kNumBuckets; ++b) buckets[b] += other.buckets[b];
}

bool SolveMetrics::empty() const { return *this == SolveMetrics{}; }

void SolveMetrics::merge(const SolveMetrics& other) {
  for (int s = 0; s < kNumStages; ++s) stages[s].merge(other.stages[s]);
  for (int r = 0; r < kNumPruneReasons; ++r) prunes[r] += other.prunes[r];
}

std::string to_json(const SolveMetrics& metrics) {
  std::string out = "{\"stages\": {";
  for (int s = 0; s < kNumStages; ++s) {
    const StageStats& stats = metrics.stages[static_cast<std::size_t>(s)];
    if (s > 0) out += ", ";
    out += '"';
    out += kStageNames[s];
    out += "\": {\"count\": " + std::to_string(stats.count) +
           ", \"total_ns\": " + std::to_string(stats.total_ns) +
           ", \"buckets\": [";
    for (int b = 0; b < kNumBuckets; ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(stats.buckets[static_cast<std::size_t>(b)]);
    }
    out += "]}";
  }
  out += "}, \"prunes\": {";
  for (int r = 0; r < kNumPruneReasons; ++r) {
    if (r > 0) out += ", ";
    out += '"';
    out += kPruneNames[r];
    out += "\": " + std::to_string(metrics.prunes[static_cast<std::size_t>(r)]);
  }
  out += "}}";
  return out;
}

namespace {

/// Minimal cursor parser for the to_json() schema: objects, arrays,
/// strings, integers. Unknown keys are skipped so the format can grow.
struct Cursor {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return false;
      }
      out->push_back(*p++);
    }
    return consume('"');
  }
  bool parse_number(long long* out) {
    skip_ws();
    char* after = nullptr;
    const long long value = std::strtoll(p, &after, 10);
    if (after == p) return false;
    // Tolerate a fractional tail (we only ever emit integers).
    if (after < end && *after == '.') {
      ++after;
      while (after < end && *after >= '0' && *after <= '9') ++after;
    }
    p = after;
    *out = value;
    return true;
  }
  bool skip_value() {
    skip_ws();
    if (p >= end) return false;
    if (*p == '"') {
      std::string ignored;
      return parse_string(&ignored);
    }
    if (*p == '{' || *p == '[') {
      const char open = *p;
      const char close = open == '{' ? '}' : ']';
      ++p;
      skip_ws();
      if (consume(close)) return true;
      for (;;) {
        if (open == '{') {
          std::string key;
          if (!parse_string(&key) || !consume(':')) return false;
        }
        if (!skip_value()) return false;
        if (consume(close)) return true;
        if (!consume(',')) return false;
      }
    }
    // number / true / false / null
    while (p < end && *p != ',' && *p != '}' && *p != ']' && *p != ' ' &&
           *p != '\n' && *p != '\t' && *p != '\r') {
      ++p;
    }
    return true;
  }
};

bool parse_stage_stats(Cursor& cur, StageStats* out) {
  if (!cur.consume('{')) return false;
  if (cur.consume('}')) return true;
  for (;;) {
    std::string key;
    if (!cur.parse_string(&key) || !cur.consume(':')) return false;
    if (key == "count") {
      if (!cur.parse_number(&out->count)) return false;
    } else if (key == "total_ns") {
      if (!cur.parse_number(&out->total_ns)) return false;
    } else if (key == "buckets") {
      if (!cur.consume('[')) return false;
      for (int b = 0; b < kNumBuckets; ++b) {
        if (b > 0 && !cur.consume(',')) return false;
        if (!cur.parse_number(&out->buckets[static_cast<std::size_t>(b)])) {
          return false;
        }
      }
      if (!cur.consume(']')) return false;
    } else if (!cur.skip_value()) {
      return false;
    }
    if (cur.consume('}')) return true;
    if (!cur.consume(',')) return false;
  }
}

}  // namespace

bool parse_metrics_json(const std::string& text, SolveMetrics* out) {
  SolveMetrics parsed;
  Cursor cur{text.data(), text.data() + text.size()};
  if (!cur.consume('{')) return false;
  if (!cur.peek('}')) {
    for (;;) {
      std::string key;
      if (!cur.parse_string(&key) || !cur.consume(':')) return false;
      if (key == "stages") {
        if (!cur.consume('{')) return false;
        if (!cur.consume('}')) {
          for (;;) {
            std::string name;
            if (!cur.parse_string(&name) || !cur.consume(':')) return false;
            int stage = -1;
            for (int s = 0; s < kNumStages; ++s) {
              if (name == kStageNames[s]) stage = s;
            }
            if (stage >= 0) {
              if (!parse_stage_stats(
                      cur, &parsed.stages[static_cast<std::size_t>(stage)])) {
                return false;
              }
            } else if (!cur.skip_value()) {
              return false;
            }
            if (cur.consume('}')) break;
            if (!cur.consume(',')) return false;
          }
        }
      } else if (key == "prunes") {
        if (!cur.consume('{')) return false;
        if (!cur.consume('}')) {
          for (;;) {
            std::string name;
            if (!cur.parse_string(&name) || !cur.consume(':')) return false;
            int reason = -1;
            for (int r = 0; r < kNumPruneReasons; ++r) {
              if (name == kPruneNames[r]) reason = r;
            }
            if (reason >= 0) {
              if (!cur.parse_number(
                      &parsed.prunes[static_cast<std::size_t>(reason)])) {
                return false;
              }
            } else if (!cur.skip_value()) {
              return false;
            }
            if (cur.consume('}')) break;
            if (!cur.consume(',')) return false;
          }
        }
      } else if (!cur.skip_value()) {
        return false;
      }
      if (cur.consume('}')) break;
      if (!cur.consume(',')) return false;
    }
  } else {
    cur.consume('}');
  }
  *out = parsed;
  return true;
}

SolveMetrics* bound_metrics() { return t_sink; }

MetricsBinding::MetricsBinding(SolveMetrics* sink) : previous_(t_sink) {
  t_sink = sink;
}

MetricsBinding::~MetricsBinding() { t_sink = previous_; }

void record_stage(Stage stage, long long ns, long long count) {
  if (t_sink != nullptr) t_sink->stage(stage).add(ns, count);
}

void record_prune(PruneReason reason, long long count) {
  if (t_sink != nullptr) t_sink->add_prune(reason, count);
}

std::int64_t metrics_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StageTimer::~StageTimer() {
  if (sink_ != nullptr) {
    sink_->stage(stage_).add(metrics_now_ns() - start_ns_);
  }
}

}  // namespace ht::obs
