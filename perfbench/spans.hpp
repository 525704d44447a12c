// Call wrapper, host timing and span recording for the benchmark.
//
// Every call the benchmark makes into the program goes through
// Calls::run(). The wrapper always times the call from outside on the
// steady clock and adds the time to a per-key total (the per-layer host
// times). With spans enabled it also records one span per call, nested
// under the task span that Calls::beginTask() opened, so a traced run can
// compute each layer's self time: a span's duration minus the part of it
// covered by its child spans. Spans stay in memory until writeChromeTrace()
// writes them out in the Chrome trace-event format that Perfetto loads.
//
// The layer-attribution self-test needs a known slowdown in one layer
// without touching program code: setInjection() makes the wrapper
// busy-wait, inside the call's span, for a fixed fraction of each call's
// own duration whenever the call belongs to the chosen layer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

/// The program's layers, named after its modules. kBench is the
/// benchmark's own code between calls (task bookkeeping and checks).
enum class Layer : std::uint8_t {
  kBench,
  kTrace,
  kWorkloads,
  kSmall,
  kGc,
  kMultilisp,
};
inline constexpr std::size_t kLayerCount = 6;
const char* layerName(Layer layer);
/// Parses a layer name; returns false when it names no layer.
bool layerFromName(const std::string& name, Layer* out);

/// Nanoseconds on the steady clock.
std::uint64_t nowNs();

struct SpanRecord {
  std::string name;
  Layer layer = Layer::kBench;
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at top
  std::uint32_t task = 0;    ///< shared by every span of one task
};

struct CallTotal {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class Calls {
 public:
  /// Record spans from now on (off by default).
  void enableSpans(bool on) { spansOn_ = on; }

  /// Busy-wait `fraction` of every `layer` call's own duration inside the
  /// call's span. fraction <= 0 disables the injection.
  void setInjection(Layer layer, double fraction) {
    injectLayer_ = layer;
    injectFraction_ = fraction;
  }

  /// Open / close the root span of one task (layer kBench). Every span
  /// opened in between carries the same task id.
  void beginTask(const std::string& name);
  void endTask();

  /// Call `f` as one call into `layer`, timed under `key` and recorded as
  /// span `name` when spans are on.
  template <class F>
  decltype(auto) run(Layer layer, const char* name, const std::string& key,
                     F&& f) {
    const std::uint64_t start = nowNs();
    const std::int32_t span = open(layer, name, start);
    if constexpr (std::is_void_v<decltype(f())>) {
      std::forward<F>(f)();
      close(layer, key, span, start);
    } else {
      decltype(auto) result = std::forward<F>(f)();
      close(layer, key, span, start);
      return result;
    }
  }

  /// Per-key host time since the last takeTotals() call, which clears
  /// them.
  std::map<std::string, CallTotal> takeTotals() {
    return std::exchange(totals_, {});
  }

  std::size_t spanCount() const { return spans_.size(); }

  /// Self time per layer, in ns, over spans [from, spans().size()).
  std::array<std::uint64_t, kLayerCount> selfNs(std::size_t from) const;

  /// Write every recorded span as a Chrome trace-event JSON document.
  /// Returns false when the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::int32_t open(Layer layer, const std::string& name,
                    std::uint64_t start);
  void close(Layer layer, const std::string& key, std::int32_t span,
             std::uint64_t start);

  bool spansOn_ = false;
  Layer injectLayer_ = Layer::kBench;
  double injectFraction_ = 0.0;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::int32_t taskRoot_ = -1;
  std::uint32_t task_ = 0;
  std::map<std::string, CallTotal> totals_;
};

}  // namespace perfbench
