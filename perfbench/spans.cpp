#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "bench", "trace", "workloads", "small", "gc", "multilisp"};

}  // namespace

const char* layerName(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

bool layerFromName(const std::string& name, Layer* out) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (name == kLayerNames[i]) {
      *out = static_cast<Layer>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Calls::beginTask(const std::string& name) {
  ++task_;
  taskRoot_ = open(Layer::kBench, name, nowNs());
}

void Calls::endTask() {
  if (taskRoot_ < 0) return;
  // Also closes spans a throwing call left open.
  const std::uint64_t end = nowNs();
  while (current_ >= taskRoot_) {
    spans_[static_cast<std::size_t>(current_)].endNs = end;
    current_ = spans_[static_cast<std::size_t>(current_)].parent;
  }
  taskRoot_ = -1;
}

std::int32_t Calls::open(Layer layer, const std::string& name,
                         std::uint64_t start) {
  if (!spansOn_) return -1;
  SpanRecord span;
  span.name = name;
  span.layer = layer;
  span.startNs = start;
  span.parent = current_;
  span.task = task_;
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Calls::close(Layer layer, const std::string& key, std::int32_t span,
                  std::uint64_t start) {
  std::uint64_t end = nowNs();
  if (injectFraction_ > 0.0 && layer == injectLayer_) {
    const std::uint64_t until =
        end + static_cast<std::uint64_t>(
                  static_cast<double>(end - start) * injectFraction_);
    while (end < until) end = nowNs();
  }
  CallTotal& total = totals_[key];
  ++total.calls;
  total.ns += end - start;
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].endNs = end;
    current_ = spans_[static_cast<std::size_t>(span)].parent;
  }
}

std::array<std::uint64_t, kLayerCount> Calls::selfNs(std::size_t from) const {
  // Children close before their parents, so one pass that subtracts each
  // span's duration from its parent's leaves every span's self time.
  std::vector<std::int64_t> self(spans_.size() - from);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    self[i - from] +=
        static_cast<std::int64_t>(spans_[i].endNs - spans_[i].startNs);
    const std::int32_t parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) >= from) {
      self[static_cast<std::size_t>(parent) - from] -=
          static_cast<std::int64_t>(spans_[i].endNs - spans_[i].startNs);
    }
  }
  std::array<std::uint64_t, kLayerCount> byLayer{};
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const std::int64_t ns = self[i - from];
    if (ns > 0) {
      byLayer[static_cast<std::size_t>(spans_[i].layer)] +=
          static_cast<std::uint64_t>(ns);
    }
  }
  return byLayer;
}

bool Calls::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().startNs;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"task\":%u}}",
                  i == 0 ? "" : ",", span.name.c_str(), layerName(span.layer),
                  static_cast<double>(span.startNs - epoch) / 1e3,
                  static_cast<double>(span.endNs - span.startNs) / 1e3, i,
                  span.parent, span.task);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
