#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace hail {
namespace obs {

std::string FormatDouble(double v) {
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec == std::errc()) return std::string(buf, ptr);
#endif
  char fallback[64];
  std::snprintf(fallback, sizeof(fallback), "%.17g", v);
  return fallback;
}

size_t Counter::ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard = next.fetch_add(1, std::memory_order_relaxed) %
                              Counter::kShards;
  return shard;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.reserve(bounds_.size() + 1);
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_.push_back(std::make_unique<Counter>());
  }
}

void Histogram::Observe(double v) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i]->Inc();
}

std::vector<uint64_t> Histogram::Counts() const {
  std::vector<uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b->Value());
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b->Reset();
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.metrics.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kCounter;
    m.count = c->Value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kGauge;
    m.value = g->Value();
    snap.metrics.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue m;
    m.name = name;
    m.kind = MetricValue::Kind::kHistogram;
    m.bounds = h->bounds();
    m.buckets = h->Counts();
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
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
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ",\n";
    first = false;
    out += "  ";
    AppendJsonString(&out, m.name);
    out += ": ";
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        out += std::to_string(m.count);
        break;
      case MetricValue::Kind::kGauge:
        out += FormatDouble(m.value);
        break;
      case MetricValue::Kind::kHistogram: {
        out += "{\"bounds\": [";
        for (size_t i = 0; i < m.bounds.size(); ++i) {
          if (i) out += ", ";
          out += FormatDouble(m.bounds[i]);
        }
        out += "], \"counts\": [";
        for (size_t i = 0; i < m.buckets.size(); ++i) {
          if (i) out += ", ";
          out += std::to_string(m.buckets[i]);
        }
        out += "]}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    out += m.name;
    out += ' ';
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        out += std::to_string(m.count);
        break;
      case MetricValue::Kind::kGauge:
        out += FormatDouble(m.value);
        break;
      case MetricValue::Kind::kHistogram:
        for (size_t i = 0; i < m.buckets.size(); ++i) {
          if (i) out += '/';
          out += std::to_string(m.buckets[i]);
        }
        break;
    }
    out += '\n';
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == contents.size() && closed;
}

}  // namespace obs
}  // namespace hail
