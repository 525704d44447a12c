// The benchmark's workloads. Each one makes its inputs from the seed in
// setup(), then exposes a fixed list of tasks; the driver runs the task
// list in passes, timing every task from outside. A task's counters are
// every simulated statistic its calls returned: they must repeat exactly
// from pass to pass, so the driver compares each pass against the first.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Counter {
  std::string name;
  std::uint64_t value = 0;
};

struct TaskOutcome {
  /// Simulated primitives the task completed. A heap_gc task counts its
  /// trace's primitives once per machine replay, LPT baseline and
  /// collector run; building a script counts none.
  std::uint64_t prims = 0;
  /// Every simulated counter the task's calls reported, in a fixed order.
  std::vector<Counter> counters;
  /// Empty when every correctness check held; else names the task and the
  /// value that diverged.
  std::string failure;
};

/// A per-layer metric the workload derives from its first pass.
struct LayerValue {
  std::string name;
  double value = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate (and preprocess, encode, map) the inputs from the seed,
  /// replacing any earlier ones. Timed as setup_s.
  virtual void setup(Calls& calls) = 0;

  /// Untimed work between setup and the first pass (e.g. finding each
  /// trace's LPT knee).
  virtual void calibrate(Calls& calls) { (void)calls; }

  virtual std::size_t taskCount() const = 0;
  /// False for a single-thread reference task: it runs in the checking
  /// pass and in a traced run's serial phase, never in the timed phases.
  virtual bool timed(std::size_t task) const {
    (void)task;
    return true;
  }
  virtual std::string taskName(std::size_t task) const = 0;
  virtual TaskOutcome runTask(std::size_t task, Calls& calls) = 0;

  /// Checks that compare tasks of the first pass with each other. Returns
  /// (task, message) for each task that failed one.
  virtual std::vector<std::pair<std::size_t, std::string>> crossCheck(
      const std::vector<TaskOutcome>& firstPass) const {
    (void)firstPass;
    return {};
  }

  /// Per-layer counts and ratios over the first pass.
  virtual std::vector<LayerValue> layerCounts(
      const std::vector<TaskOutcome>& firstPass) const = 0;

  /// Threads the timed tasks use.
  virtual int concurrency() const { return 1; }

  /// Input events made by setup() (raw trace events over all inputs).
  virtual std::uint64_t inputEvents() const = 0;
};

/// The first counter where `got` differs from `want`, as "name = value,
/// expected value"; empty when they are identical.
std::string counterDifference(const std::vector<Counter>& got,
                              const std::vector<Counter>& want);

/// nullptr when `name` is not a workload. `scratchDir` is where the
/// service workload writes its SMTR input files.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& scratchDir);

}  // namespace perfbench
