// The benchmark driver: one run of one workload.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR] [--inject-layer L --inject-fraction F]
//
// A run sets the workload up several times (setup_s is the median), runs
// one untimed checking pass over its task list, then runs the task list
// in passes for --seconds of host time, one task at a time (closed loop:
// each task starts when the previous one returned). Host interference only
// ever adds time, so each task's time is its fastest run, and the
// end-to-end figures describe one pass at those times. Every task's
// counters are compared with the checking pass, so a task whose simulated
// results change from pass to pass fails. With --trace 1 the time is split
// between an untraced phase (the per-layer host times), a single-thread
// phase where the workload has reference tasks, and a traced phase whose
// spans give each layer's self time; the spans are written to DIR as a
// Chrome trace.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). The exit code is 0 only when every check
// held. --inject-layer/--inject-fraction slow one layer's calls down from
// the benchmark's own wrapper; the layer-attribution self-test uses them.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gc/collector.hpp"
#include "heap/backend.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up runs: at least kMinSetupRuns, more while they stay cheap, so
/// the median of a short set-up is not one scheduler hiccup.
constexpr int kMinSetupRuns = 3;
constexpr int kMaxSetupRuns = 31;
constexpr double kSetupBudgetSeconds = 3.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".";
  Layer injectLayer = Layer::kBench;
  double injectFraction = 0.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--inject-layer LAYER --inject-fraction F]\n",
               why);
  std::exit(2);
}

bool parseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

Options parseOptions(int argc, char** argv) {
  Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      if (!parseNumber(value, &number) || number < 0 ||
          number != std::floor(number) || number > 9e15) {
        usage("--seed must be a whole number");
      }
      options.seed = static_cast<std::uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!parseNumber(value, &number) || number <= 0 || number > 3600) {
        usage("--seconds must be in (0, 3600]");
      }
      options.seconds = number;
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      options.trace = v == "1";
    } else if (flag == "--out-dir") {
      options.outDir = value;
    } else if (flag == "--inject-layer") {
      if (!layerFromName(value, &options.injectLayer)) {
        usage("unknown --inject-layer");
      }
    } else if (flag == "--inject-fraction") {
      if (!parseNumber(value, &number) || number < 0 || number > 10) {
        usage("--inject-fraction must be in [0, 10]");
      }
      options.injectFraction = number;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return options;
}

/// Host and build fingerprint, one "key: value" line each.
std::string hostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(std::min(colon + 2, line.size()));
      break;
    }
  }
  return "host.nproc: " +
         std::to_string(std::thread::hardware_concurrency()) +
         "\nhost.cpu: " + cpu +
         "\nbuild.compiler: " PERFBENCH_COMPILER
         "\nbuild.type: " PERFBENCH_BUILD_TYPE
         "\nbuild.flags: " PERFBENCH_CXX_FLAGS "\n";
}

/// Peak resident set size of this process so far, in MiB.
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank quantile of sorted samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct Metric {
  std::string name;
  const char* unit;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload
/// never enters reports 0.
std::vector<Metric> perLayerMetrics() {
  std::vector<Metric> m = {
      {"trace.generate_s", "s"},
      {"trace.generate_ns_per_event", "ns/event"},
      {"trace.preprocess_s", "s"},
      {"trace.encode_s", "s"},
      {"trace.events", "count"},
      {"workloads.family_generate_s", "s"},
      {"small.sim_s", "s"},
      {"small.sim.lpt_hit_ratio", "ratio"},
      {"small.sim.splits", "count"},
      {"small.sim.merges", "count"},
      {"small.sim.pseudo_overflows", "count"},
      {"small.sim.cycle_recoveries", "count"},
      {"small.sim.ref_ops", "count"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
  };
  using small::heap::heapBackendName;
  for (const auto kind : small::heap::kAllHeapBackendKinds) {
    m.push_back({std::string("small.replay_s.") + heapBackendName(kind), "s"});
  }
  for (const char* c :
       {"splits", "hits", "pseudo_overflows", "cycle_recoveries"}) {
    m.push_back({std::string("small.machine.") + c, "count"});
  }
  for (const auto kind : small::heap::kAllHeapBackendKinds) {
    m.push_back({std::string("heap.touches_per_prim.") + heapBackendName(kind),
                 "touches/prim"});
  }
  for (const auto kind : small::heap::kAllHeapBackendKinds) {
    m.push_back({std::string("heap.peak_live_cells.") + heapBackendName(kind),
                 "count"});
  }
  m.push_back({"gc.script_build_s", "s"});
  m.push_back({"gc.baseline_s", "s"});
  using small::gc::policyName;
  for (const auto policy : small::gc::kAllCollectorPolicies) {
    m.push_back({std::string("gc.script_s.") + policyName(policy), "s"});
  }
  for (const auto policy : small::gc::kAllCollectorPolicies) {
    m.push_back({std::string("gc.pause_max_units.") + policyName(policy),
                 "touches"});
  }
  for (const auto policy : small::gc::kAllCollectorPolicies) {
    m.push_back({std::string("gc.pause_total_units.") + policyName(policy),
                 "touches"});
  }
  for (const auto policy : small::gc::kAllCollectorPolicies) {
    m.push_back({std::string("gc.traced_per_reclaimed.") + policyName(policy),
                 "ratio"});
  }
  const small::gc::Policy machinePolicies[] = {
      small::gc::Policy::kMarkSweep, small::gc::Policy::kGenerational,
      small::gc::Policy::kIncremental};
  for (const auto policy : machinePolicies) {
    m.push_back({std::string("gc.machine.collections.") + policyName(policy),
                 "count"});
  }
  for (const auto policy : machinePolicies) {
    m.push_back(
        {std::string("gc.machine.pause_max_units.") + policyName(policy),
         "touches"});
  }
  m.push_back({"multilisp.run_s", "s"});
  m.push_back({"multilisp.serial_prims_per_s", "prims/s"});
  m.push_back({"multilisp.scaling", "x"});
  m.push_back({"multilisp.contended_ratio", "ratio"});
  m.push_back({"multilisp.queue_messages", "count"});
  m.push_back({"multilisp.combined_ratio", "ratio"});
  m.push_back({"bench.trace_overhead", "x"});
  for (const Layer layer : {Layer::kBench, Layer::kTrace, Layer::kWorkloads}) {
    m.push_back({std::string("self.") + layerName(layer) + ".setup_s", "s"});
  }
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    m.push_back({std::string("self.") + layerName(static_cast<Layer>(l)) +
                     ".ns_per_prim",
                 "ns/prim"});
  }
  return m;
}

void setMetric(std::vector<Metric>& metrics, const std::string& name,
               double value, std::size_t samples = 1) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.samples = samples;
      return;
    }
  }
  std::fprintf(stderr, "perfbench_driver: internal: no metric %s\n",
               name.c_str());
  std::exit(3);
}

std::uint64_t fnv(std::uint64_t hash, const std::string& text) {
  for (const unsigned char ch : text) hash = (hash ^ ch) * 1099511628211ull;
  return hash;
}

/// What one timed phase measured. Host interference only ever adds time,
/// so each task's time is the fastest of its runs in the phase, and the
/// phase's figures describe one pass at those times.
struct Phase {
  double seconds = 0.0;           ///< wall time of the phase
  std::uint64_t runs = 0;         ///< task runs, all passes
  std::vector<std::uint64_t> minNs;  ///< per task; 0 = never ran
  std::vector<std::uint64_t> prims;  ///< per task
  /// Per task, the fastest run's host ns in each call key.
  std::vector<std::map<std::string, std::uint64_t>> keyNs;
  std::vector<double> passRates;  ///< prims/s of each complete pass
  std::uint64_t totalPrims = 0;   ///< over every run

  /// Simulated primitives per host second over one pass at each task's
  /// fastest time.
  double primsPerSecond() const {
    double prims = 0.0;
    double ns = 0.0;
    for (std::size_t t = 0; t < minNs.size(); ++t) {
      if (minNs[t] == 0) continue;
      prims += static_cast<double>(this->prims[t]);
      ns += static_cast<double>(minNs[t]);
    }
    return ns > 0 ? prims * 1e9 / ns : 0.0;
  }

  /// Host ns per simulated primitive of every task that ran, sorted.
  std::vector<double> sortedNsPerPrim() const {
    std::vector<double> out;
    for (std::size_t t = 0; t < minNs.size(); ++t) {
      if (minNs[t] != 0 && prims[t] != 0) {
        out.push_back(static_cast<double>(minNs[t]) /
                      static_cast<double>(prims[t]));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Seconds per pass spent in calls timed under `key`.
  double secondsPerPass(const std::string& key) const {
    std::uint64_t ns = 0;
    for (const auto& task : keyNs) {
      const auto it = task.find(key);
      if (it != task.end()) ns += it->second;
    }
    return static_cast<double>(ns) / 1e9;
  }

  std::size_t tasksRun() const {
    return static_cast<std::size_t>(
        std::count_if(minNs.begin(), minNs.end(),
                      [](std::uint64_t ns) { return ns != 0; }));
  }
};

class Runner {
 public:
  Runner(Workload& workload, Calls& calls) : wl_(workload), calls_(calls) {}

  /// Run `task`, check it against the checking pass (once there is one),
  /// and return its host ns and outcome.
  std::pair<std::uint64_t, TaskOutcome> runChecked(std::size_t task) {
    const std::string name = wl_.taskName(task);
    calls_.beginTask(name);
    const std::uint64_t start = nowNs();
    TaskOutcome outcome;
    try {
      outcome = wl_.runTask(task, calls_);
    } catch (const std::exception& error) {
      outcome.failure = name + ": threw: " + error.what();
    }
    const std::uint64_t ns = nowNs() - start;
    if (outcome.failure.empty() && task < firstPass_.size()) {
      const std::string difference =
          counterDifference(outcome.counters, firstPass_[task].counters);
      if (!difference.empty()) {
        outcome.failure = name + ": " + difference + " in the checking pass";
      }
    }
    calls_.endTask();
    ++attempted_;
    if (!outcome.failure.empty()) fail(outcome.failure);
    return {ns, std::move(outcome)};
  }

  /// The untimed checking pass: every task once, then the cross-task
  /// checks. Its outcomes are the reference for every later pass.
  void checkingPass() {
    std::vector<TaskOutcome> pass;
    for (std::size_t t = 0; t < wl_.taskCount(); ++t) {
      pass.push_back(runChecked(t).second);
    }
    for (const auto& [task, message] : wl_.crossCheck(pass)) {
      (void)task;
      fail(message);
    }
    firstPass_ = std::move(pass);
    calls_.takeTotals();
  }

  /// Task passes over the timed tasks (or, with `reference`, over the
  /// single-thread reference tasks) until `seconds` of host time have
  /// passed and every task has run at least once.
  Phase timedPhase(double seconds, bool reference = false) {
    Phase phase;
    const std::size_t n = wl_.taskCount();
    phase.minNs.assign(n, 0);
    phase.prims.assign(n, 0);
    phase.keyNs.resize(n);
    calls_.takeTotals();
    const std::uint64_t start = nowNs();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t now = start;
    bool firstPass = true;
    while (now < end || firstPass) {
      const std::uint64_t passStart = now;
      std::uint64_t passPrims = 0;
      std::size_t t = 0;
      for (; t < n && (now < end || firstPass); ++t) {
        if (wl_.timed(t) == reference) continue;
        auto [ns, outcome] = runChecked(t);
        ns = std::max<std::uint64_t>(ns, 1);
        ++phase.runs;
        phase.totalPrims += outcome.prims;
        passPrims += outcome.prims;
        if (phase.minNs[t] == 0 || ns < phase.minNs[t]) {
          phase.minNs[t] = ns;
          phase.prims[t] = outcome.prims;
          phase.keyNs[t].clear();
          for (const auto& [key, total] : calls_.takeTotals()) {
            phase.keyNs[t][key] = total.ns;
          }
        } else {
          calls_.takeTotals();
        }
        now = nowNs();
      }
      if (t == n) {
        phase.passRates.push_back(static_cast<double>(passPrims) * 1e9 /
                                  static_cast<double>(now - passStart));
      }
      firstPass = false;
    }
    phase.seconds = static_cast<double>(now - start) / 1e9;
    return phase;
  }

  const std::vector<TaskOutcome>& firstPass() const { return firstPass_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void fail(const std::string& message) {
    ++failed_;
    if (failed_ <= 20) std::fprintf(stderr, "FAILED %s\n", message.c_str());
  }

  Workload& wl_;
  Calls& calls_;
  std::vector<TaskOutcome> firstPass_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

void printMetric(const Metric& m) {
  std::printf("  %-40s %18.6f %-13s n=%zu\n", m.name.c_str(), m.value, m.unit,
              m.samples);
}

std::string jsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char text[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(text, sizeof text, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += text;
  }
  return out + "}";
}

int run(const Options& options) {
  const std::string scratch = options.outDir + "/inputs-" +
                              options.workload + "-" +
                              std::to_string(options.seed);
  std::unique_ptr<Workload> wl =
      makeWorkload(options.workload, options.seed, scratch);
  if (!wl) usage(("unknown workload " + options.workload).c_str());
  Calls calls;
  calls.setInjection(options.injectLayer, options.injectFraction);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fputs(hostFingerprint().c_str(), stdout);
  std::printf("service.concurrency: %d\n", wl->concurrency());
  std::puts("loop: closed, one process; every task waits for the previous "
            "one to return");
  std::puts("state: the LPT, heap and comparison cache start empty for every "
            "task (each task builds its simulator, machine or collector "
            "afresh)");
  if (options.injectFraction > 0) {
    std::printf("injected: busy-wait %.0f%% of every %s call\n",
                options.injectFraction * 100, layerName(options.injectLayer));
  }

  // --- set-up, several times; the last one is traced in a traced run ---
  std::vector<double> setupSeconds;
  std::map<std::string, std::vector<double>> setupKeys;
  std::array<std::uint64_t, kLayerCount> setupSelf{};
  double setupTotal = 0.0;
  for (int r = 0; r < kMaxSetupRuns; ++r) {
    const bool last = r + 1 >= kMinSetupRuns &&
                      (r + 1 == kMaxSetupRuns ||
                       setupTotal * (r + 1) / r > kSetupBudgetSeconds);
    const bool traced = options.trace && last;
    calls.enableSpans(traced);
    const std::size_t firstSpan = calls.spanCount();
    calls.beginTask("setup");
    const std::uint64_t start = nowNs();
    wl->setup(calls);
    setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
    setupTotal += setupSeconds.back();
    calls.endTask();
    calls.enableSpans(false);
    if (traced) setupSelf = calls.selfNs(firstSpan);
    for (const auto& [key, total] : calls.takeTotals()) {
      setupKeys[key].push_back(static_cast<double>(total.ns) / 1e9);
    }
    if (last) break;
  }
  wl->calibrate(calls);
  calls.takeTotals();

  Runner runner(*wl, calls);
  runner.checkingPass();

  // --- timed phases ---
  const bool serialPhase = options.trace && wl->concurrency() > 1;
  const double share =
      options.trace ? options.seconds / (serialPhase ? 3.0 : 2.0)
                    : options.seconds;
  const Phase untraced = runner.timedPhase(share);
  Phase serial;
  if (serialPhase) serial = runner.timedPhase(share, /*reference=*/true);
  Phase traced;
  std::array<std::uint64_t, kLayerCount> tracedSelf{};
  std::uint64_t tracedPrims = 0;
  if (options.trace) {
    calls.enableSpans(true);
    const std::size_t firstSpan = calls.spanCount();
    traced = runner.timedPhase(share);
    calls.enableSpans(false);
    tracedSelf = calls.selfNs(firstSpan);
    tracedPrims = traced.totalPrims;
  }

  // --- end-to-end metrics (from the untraced phase) ---
  const std::vector<double> sorted = untraced.sortedNsPerPrim();
  const double rate = untraced.primsPerSecond();
  const double failRatio =
      static_cast<double>(runner.failed()) /
      static_cast<double>(std::max<std::uint64_t>(1, runner.attempted()));
  std::vector<Metric> endToEnd = {
      {"prims_per_s", "prims/s", rate, sorted.size()},
      {"task_ns_per_prim_p50", "ns/prim", quantile(sorted, 0.5),
       sorted.size()},
      {"task_ns_per_prim_p90", "ns/prim", quantile(sorted, 0.9),
       sorted.size()},
      {"peak_rss_mb", "MB", peakRssMb(), 1},
      {"setup_s", "s", median(setupSeconds), setupSeconds.size()},
  };

  // --- digest over every simulated counter of the checking pass ---
  std::uint64_t digest = 1469598103934665603ull;
  for (std::size_t t = 0; t < runner.firstPass().size(); ++t) {
    digest = fnv(digest, wl->taskName(t));
    for (const Counter& c : runner.firstPass()[t].counters) {
      digest = fnv(digest, c.name + "=" + std::to_string(c.value));
    }
  }

  std::printf("tasks: %zu per pass, %zu timed; timed phase %.3f s, %llu "
              "task runs\n",
              wl->taskCount(), sorted.size(), untraced.seconds,
              static_cast<unsigned long long>(untraced.runs));
  if (!untraced.passRates.empty()) {
    std::vector<double> rates = untraced.passRates;
    std::sort(rates.begin(), rates.end());
    std::printf("host noise: complete-pass rates min %.0f median %.0f max "
                "%.0f prims/s over %zu passes\n",
                rates.front(), median(rates), rates.back(), rates.size());
  }
  std::printf("digest: %016llx (every simulated counter of the checking "
              "pass; changes only when simulated behaviour does)\n",
              static_cast<unsigned long long>(digest));
  std::puts("end-to-end (untraced host time; each task at its fastest run, "
            "n = tasks):");
  for (const Metric& m : endToEnd) printMetric(m);
  printMetric({"fail_ratio", "ratio", failRatio,
               static_cast<std::size_t>(runner.attempted())});

  std::vector<Metric> perLayer;
  if (options.trace) {
    perLayer = perLayerMetrics();
    for (const auto& [key, values] : setupKeys) {
      setMetric(perLayer, key, median(values), values.size());
    }
    const auto setupKey = [&](const char* key) {
      const auto it = setupKeys.find(key);
      return it == setupKeys.end() ? 0.0 : median(it->second);
    };
    const double events = static_cast<double>(wl->inputEvents());
    setMetric(perLayer, "trace.events", events);
    setMetric(perLayer, "trace.generate_ns_per_event",
              events > 0 ? (setupKey("trace.generate_s") +
                            setupKey("workloads.family_generate_s")) *
                               1e9 / events
                         : 0.0);
    std::set<std::string> keys;
    for (const auto& task : untraced.keyNs) {
      for (const auto& [key, ns] : task) keys.insert(key);
    }
    for (const std::string& key : keys) {
      setMetric(perLayer, key, untraced.secondsPerPass(key), sorted.size());
    }
    for (const LayerValue& v : wl->layerCounts(runner.firstPass())) {
      setMetric(perLayer, v.name, v.value);
    }
    if (serialPhase) {
      const double serialRate = serial.primsPerSecond();
      setMetric(perLayer, "multilisp.serial_prims_per_s", serialRate,
                serial.tasksRun());
      setMetric(perLayer, "multilisp.scaling",
                serialRate > 0 ? rate / serialRate : 0.0, serial.tasksRun());
    }
    setMetric(perLayer, "bench.trace_overhead",
              rate > 0 ? traced.primsPerSecond() / rate : 0.0,
              traced.tasksRun());
    for (const Layer layer :
         {Layer::kBench, Layer::kTrace, Layer::kWorkloads}) {
      setMetric(perLayer, std::string("self.") + layerName(layer) + ".setup_s",
                static_cast<double>(
                    setupSelf[static_cast<std::size_t>(layer)]) /
                    1e9);
    }
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      setMetric(perLayer,
                std::string("self.") + layerName(static_cast<Layer>(l)) +
                    ".ns_per_prim",
                tracedPrims > 0 ? static_cast<double>(tracedSelf[l]) /
                                      static_cast<double>(tracedPrims)
                                : 0.0,
                traced.runs);
    }

    std::puts("layer self time (traced phase; a span's time minus its "
              "child spans):");
    std::printf("  %-10s %12s %12s %12s %12s\n", "layer", "setup s",
                "timed s", "timed share", "ns/prim");
    std::uint64_t tracedTotal = 0;
    for (const std::uint64_t ns : tracedSelf) tracedTotal += ns;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::printf(
          "  %-10s %12.6f %12.6f %11.2f%% %12.3f\n",
          layerName(static_cast<Layer>(l)),
          static_cast<double>(setupSelf[l]) / 1e9,
          static_cast<double>(tracedSelf[l]) / 1e9,
          tracedTotal > 0 ? 100.0 * static_cast<double>(tracedSelf[l]) /
                                static_cast<double>(tracedTotal)
                          : 0.0,
          tracedPrims > 0 ? static_cast<double>(tracedSelf[l]) /
                                static_cast<double>(tracedPrims)
                          : 0.0);
    }
    const std::string tracePath = options.outDir + "/trace-" +
                                  options.workload + "-" +
                                  std::to_string(options.seed) + ".json";
    if (!calls.writeChromeTrace(tracePath)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   tracePath.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", calls.spanCount(),
                tracePath.c_str());
    std::puts("per-layer (counts from the checking pass; times per pass, "
              "each task at its fastest untraced run):");
    for (const Metric& m : perLayer) printMetric(m);
  }

  const bool correct = runner.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()),
              jsonMetrics(options.trace ? perLayer : endToEnd).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseOptions(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
