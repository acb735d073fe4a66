#ifndef PROMETHEUS_COMMON_STATS_H_
#define PROMETHEUS_COMMON_STATS_H_

// Shared statistics and serialization helpers used by both the benchmark
// harness (bench/bench_util.h) and the observability layer (src/obs).
// Hoisted out of the benches the moment the engine itself needed them —
// one implementation of percentile math and JSON emission, not two.

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace prometheus::stats {

// ------------------------------------------------------------ percentiles

/// The `p`-th percentile (0..100) of `samples` by linear interpolation
/// between closest ranks. Copies and sorts; 0 on an empty input.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0) return samples.front();
  if (p >= 100) return samples.back();
  const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

/// The latency digest every serving benchmark (and the metrics snapshot
/// code) reports.
struct LatencyStats {
  std::size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Digests a latency sample set (any unit; typically milliseconds).
inline LatencyStats SummarizeLatencies(const std::vector<double>& samples) {
  LatencyStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  double sum = 0;
  for (double s : samples) {
    sum += s;
    stats.max = std::max(stats.max, s);
  }
  stats.mean = sum / static_cast<double>(samples.size());
  stats.p50 = Percentile(samples, 50);
  stats.p95 = Percentile(samples, 95);
  stats.p99 = Percentile(samples, 99);
  return stats;
}

// ------------------------------------------------------------------- JSON

/// Appends `s` to `out` as the body of a JSON string (no quotes). One pass,
/// appending runs of plain bytes whole. Every byte below 0x20 is escaped
/// (JSON forbids raw control characters in strings); bytes from 0x80 up
/// pass through, so valid UTF-8 stays valid.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                             kHex[c & 0xF]};
        out->append(esc, sizeof esc);
      }
    }
  }
  out->append(s.substr(run));
}

/// Minimal JSON emitter for machine-readable output (`BENCH_*.json` files,
/// metrics snapshots, telemetry bodies): nested objects/arrays with
/// automatic comma placement and full string escaping.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return CloseWith('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return CloseWith(']'); }

  /// Emits `"key":` — must be followed by a value or Begin*.
  JsonWriter& Key(const std::string& key) {
    Comma();
    out_ += '"';
    AppendJsonEscaped(&out_, key);
    out_ += "\":";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& String(const std::string& v) {
    Comma();
    out_ += '"';
    AppendJsonEscaped(&out_, v);
    out_ += '"';
    return *this;
  }
  JsonWriter& Number(double v) {
    Comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Int(long long v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Uint(unsigned long long v) {
    Comma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Null() {
    Comma();
    out_ += "null";
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Comma();
    out_ += c;
    depth_comma_.push_back(false);
    return *this;
  }
  JsonWriter& CloseWith(char c) {
    out_ += c;
    if (!depth_comma_.empty()) depth_comma_.pop_back();
    if (!depth_comma_.empty()) depth_comma_.back() = true;
    return *this;
  }
  void Comma() {
    if (pending_value_) {  // value right after a key: no comma
      pending_value_ = false;
      return;
    }
    if (!depth_comma_.empty()) {
      if (depth_comma_.back()) out_ += ',';
      depth_comma_.back() = true;
    }
  }

  std::string out_;
  std::vector<bool> depth_comma_;
  bool pending_value_ = false;
};

/// Writes `content` to `path` (truncating); true on success.
inline bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = n == content.size() && std::fclose(f) == 0;
  if (n != content.size()) std::fclose(f);
  return ok;
}

}  // namespace prometheus::stats

#endif  // PROMETHEUS_COMMON_STATS_H_
