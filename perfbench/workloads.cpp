// The three workloads. Each loads its own layers of the SMALL pipeline,
// so that a change to one layer can be judged on the workload it should
// move and on one it should leave alone:
//   paper_sim      Ch. 5 statistical simulation (Simulator, EP model, LPT,
//                  comparison cache); never enters heap, gc, SmallMachine
//                  or multilisp.
//   heap_gc        functional machine replay on every heap backend under
//                  every machine GC policy, plus the gc::Script collector
//                  comparison; never enters the Simulator or the cache.
//   service_mixed  multi-tenant runService over SMTR-mapped traces: the
//                  only workload with combining queues, ShardedLpt locking,
//                  binary decode and preprocessing inside the timed loop.
// Every task builds its simulator, machine or collector from scratch, so
// the LPT, heap and cache start empty for each task.
#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <thread>

#include "gc/collector.hpp"
#include "gc/script.hpp"
#include "multilisp/service.hpp"
#include "small/gc_baseline.hpp"
#include "small/machine_replay.hpp"
#include "small/simulator.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/preprocess.hpp"
#include "trace/synthetic.hpp"
#include "workloads/families/family.hpp"

namespace perfbench {

namespace {

using namespace small;

using Counters = std::vector<Counter>;

std::uint64_t counterValue(const Counters& counters, const std::string& name) {
  for (const Counter& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Sum (or, with takeMax, maximum) of every counter named
/// <prefix>...<suffix> over the given tasks.
double matching(const std::vector<TaskOutcome>& pass, const std::string& prefix,
                const std::string& suffix, bool takeMax) {
  double result = 0.0;
  for (const TaskOutcome& outcome : pass) {
    for (const Counter& c : outcome.counters) {
      if (c.name.size() >= prefix.size() + suffix.size() &&
          c.name.compare(0, prefix.size(), prefix) == 0 &&
          c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
        const double v = static_cast<double>(c.value);
        result = takeMax ? std::max(result, v) : result + v;
      }
    }
  }
  return result;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void addMachine(Counters& out, const std::string& p,
                const core::SmallMachine::Stats& m) {
  out.push_back({p + "gets", m.gets});
  out.push_back({p + "frees", m.frees});
  out.push_back({p + "splits", m.splits});
  out.push_back({p + "hits", m.hits});
  out.push_back({p + "merges", m.merges});
  out.push_back({p + "conses", m.conses});
  out.push_back({p + "modifies", m.modifies});
  out.push_back({p + "read_lists", m.readLists});
  out.push_back({p + "pseudo_overflows", m.pseudoOverflows});
  out.push_back({p + "ref_ops", m.refOps});
  out.push_back({p + "cycle_recoveries", m.cycleRecoveries});
  out.push_back({p + "heap_frees_serviced", m.heapFreesServiced});
  out.push_back({p + "free_queue_high_water", m.freeQueueHighWater});
  out.push_back({p + "peak_entries", m.peakEntriesInUse});
}

void addHeap(Counters& out, const std::string& p, const heap::HeapStats& h) {
  out.push_back({p + "allocs", h.allocs});
  out.push_back({p + "frees", h.frees});
  out.push_back({p + "splits", h.splits});
  out.push_back({p + "merges", h.merges});
  out.push_back({p + "touches", h.touches()});
  out.push_back({p + "live_cells", h.liveCells});
  out.push_back({p + "peak_live_cells", h.peakLiveCells});
}

void addGc(Counters& out, const std::string& p, const gc::GcStats& g) {
  out.push_back({p + "collections", g.collections});
  out.push_back({p + "reclaimed", g.cellsReclaimed});
  out.push_back({p + "traced", g.cellsTraced});
  out.push_back({p + "heap_touches", g.heapTouches});
  out.push_back({p + "table_touches", g.tableTouches});
  out.push_back({p + "barrier_ops", g.barrierOps});
  out.push_back({p + "deferred_decrements", g.deferredDecrements});
  out.push_back({p + "zct_overflows", g.zctOverflows});
  out.push_back({p + "zct_high_water", g.zctHighWater});
  out.push_back({p + "max_pause", g.maxPause});
  out.push_back({p + "total_pause", g.totalPause});
  out.push_back({p + "minor_collections", g.minorCollections});
  out.push_back({p + "promoted", g.cellsPromoted});
  out.push_back({p + "full_cycles", g.fullCycles});
}

void addLpt(Counters& out, const std::string& p, const core::LptStats& s) {
  out.push_back({p + "ref_ops", s.refOps});
  out.push_back({p + "gets", s.gets});
  out.push_back({p + "frees", s.frees});
  out.push_back({p + "lazy_decrements", s.lazyDecrements});
  out.push_back({p + "max_ref_count", s.maxRefCount});
  out.push_back({p + "stack_bit_messages", s.stackBitMessages});
}

void addReplay(Counters& out, const std::string& p,
               const core::ReplayResult& r) {
  out.push_back({p + "prims", r.primitives});
  out.push_back({p + "function_calls", r.functionCalls});
  out.push_back({p + "residual_entries", r.residualEntries});
  out.push_back({p + "residual_heap_cells", r.residualHeapCells});
  addMachine(out, p + "machine.", r.machine);
  addHeap(out, p + "heap.", r.heap);
  addGc(out, p + "gc.", r.gcStats);
}

/// A fresh raw trace from `profile`, generated from its own derived seed.
trace::Trace generateTrace(Calls& calls, const trace::WorkloadProfile& profile,
                           std::uint64_t seed) {
  support::Rng rng(seed);
  return calls.run(Layer::kTrace, "trace::generate", "trace.generate_s",
                   [&] { return trace::generate(profile, rng); });
}

trace::PreprocessedTrace preprocessTrace(Calls& calls,
                                         const trace::Trace& raw) {
  return calls.run(Layer::kTrace, "trace::preprocess", "trace.preprocess_s",
                   [&] { return trace::preprocess(raw); });
}

// ---------------------------------------------------------------------------
// paper_sim

/// The Ch. 5 profiles (Table 5.1 lengths) plus Pearl at its Ch. 3 length,
/// which Table 5.1 does not shorten.
std::vector<trace::WorkloadProfile> paperSimProfiles() {
  return {trace::lyraSimProfile(), trace::plagenSimProfile(),
          trace::slangSimProfile(), trace::editorSimProfile(),
          trace::pearlProfile(1.0)};
}

class PaperSim final : public Workload {
 public:
  explicit PaperSim(std::uint64_t seed) : seed_(seed) {}

  void setup(Calls& calls) override {
    inputs_.clear();
    events_ = 0;
    const auto profiles = paperSimProfiles();
    for (std::size_t r = 0; r < kReplicas; ++r) {
      for (const trace::WorkloadProfile& profile : profiles) {
        const std::size_t index = inputs_.size();
        trace::Trace raw = generateTrace(
            calls, profile, support::deriveTaskSeed(seed_, index));
        events_ += raw.events().size();
        Input input;
        input.name = profile.name + "#" + std::to_string(r);
        input.pre = preprocessTrace(calls, raw);
        for (const trace::PreprocessedEvent& e : input.pre.events) {
          if (e.kind != trace::EventKind::kPrimitive) continue;
          if (e.primitive == trace::Primitive::kCar ||
              e.primitive == trace::Primitive::kCdr) {
            ++input.carCdr;
          } else if (e.primitive == trace::Primitive::kRplaca ||
                     e.primitive == trace::Primitive::kRplacd) {
            ++input.rplac;
          }
        }
        inputs_.push_back(std::move(input));
      }
    }
  }

  void calibrate(Calls& calls) override {
    // Each trace's knee is its peak occupancy on an unconstrained table.
    tasks_.clear();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      core::SimConfig big;
      big.tableSize = 1u << 18;
      big.seed = support::deriveTaskSeed(seed_ ^ 0x6b6e6565ull, i);
      inputs_[i].knee = calls.run(Layer::kSmall, "core::simulateTrace",
                                  "calibrate.knee_s", [&] {
                                    return core::simulateTrace(
                                        big, inputs_[i].pre);
                                  }).peakOccupancy;
    }
    // Interleave so a pass cut short at the deadline still samples every
    // profile and ladder rung evenly.
    for (const double fraction : kLadder) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        Task task;
        task.input = i;
        task.fraction = fraction;
        task.size = std::max<std::uint32_t>(
            16, static_cast<std::uint32_t>(inputs_[i].knee * fraction));
        task.seed = support::deriveTaskSeed(seed_, 100 + tasks_.size());
        tasks_.push_back(task);
      }
    }
  }

  std::size_t taskCount() const override { return tasks_.size(); }

  std::string taskName(std::size_t t) const override {
    const Task& task = tasks_[t];
    char text[96];
    std::snprintf(text, sizeof text, "sim/%s/lpt%u(%.2fx knee)",
                  inputs_[task.input].name.c_str(), task.size, task.fraction);
    return text;
  }

  TaskOutcome runTask(std::size_t t, Calls& calls) override {
    const Task& task = tasks_[t];
    const Input& input = inputs_[task.input];
    core::SimConfig config;
    config.tableSize = task.size;
    config.driveCache = true;
    config.cacheEntries = task.size;  // Table 5.4: equal entry counts
    config.cacheLineSize = 1;
    config.seed = task.seed;
    const core::SimResult r =
        calls.run(Layer::kSmall, "core::simulateTrace", "small.sim_s",
                  [&] { return core::simulateTrace(config, input.pre); });

    TaskOutcome out;
    out.prims = r.primitivesSimulated;
    Counters& c = out.counters;
    c.push_back({"prims", r.primitivesSimulated});
    c.push_back({"function_calls", r.functionCalls});
    c.push_back({"lpt_hits", r.lptHits});
    c.push_back({"lpt_misses", r.lptMisses});
    c.push_back({"cache_hits", r.cacheHits});
    c.push_back({"cache_misses", r.cacheMisses});
    c.push_back({"peak_occupancy", r.peakOccupancy});
    c.push_back({"lp.splits", r.lpStats.splits});
    c.push_back({"lp.hits", r.lpStats.hits});
    c.push_back({"lp.modifies", r.lpStats.modifies});
    c.push_back({"lp.merges", r.lpStats.merges});
    c.push_back({"lp.pseudo_overflows", r.lpStats.pseudoOverflows});
    c.push_back({"lp.true_overflows", r.lpStats.trueOverflows});
    c.push_back({"lp.cycle_recoveries", r.lpStats.cycleRecoveries});
    c.push_back({"lp.cycle_reclaimed", r.lpStats.cycleEntriesReclaimed});
    c.push_back({"lp.overflow_mode_ops", r.lpStats.overflowModeOps});
    c.push_back({"lp.heap_frees", r.lpStats.heapFrees});
    c.push_back({"lp.ep_ref_ops", r.lpStats.epRefOps});
    addLpt(c, "lpt.", r.lptStats);
    c.push_back({"lifetime_samples", r.lifetimeMaxCounts.total()});

    // Checks that hold for any seed and RNG stream. The cache observes
    // exactly the LP's car/cdr requests; each is a table hit, a split, or
    // a bypass (counted in overflow-mode ops), and rplaca/rplacd may add
    // at most one split each.
    using std::to_string;
    const std::uint64_t requests = r.cacheHits + r.cacheMisses;
    const std::string name = taskName(t);
    if (r.primitivesSimulated != input.pre.primitiveCount) {
      out.failure = name + ": primitivesSimulated " +
                    to_string(r.primitivesSimulated) + " != trace primitives " +
                    to_string(input.pre.primitiveCount);
    } else if (requests > input.carCdr) {
      out.failure = name + ": LP car/cdr requests " + to_string(requests) +
                    " exceed the trace's car/cdr calls " +
                    to_string(input.carCdr);
    } else if (r.lptHits > requests ||
               requests > r.lptHits + r.lptMisses + r.lpStats.overflowModeOps) {
      out.failure = name + ": LP car/cdr requests " + to_string(requests) +
                    " not covered by hits " + to_string(r.lptHits) +
                    " + splits " + to_string(r.lptMisses) + " + bypasses " +
                    to_string(r.lpStats.overflowModeOps);
    } else if (r.lptHits + r.lptMisses > requests + input.rplac) {
      out.failure = name + ": hits + splits " +
                    to_string(r.lptHits + r.lptMisses) +
                    " exceed car/cdr requests + rplac calls " +
                    to_string(requests + input.rplac);
    }
    return out;
  }

  std::vector<LayerValue> layerCounts(
      const std::vector<TaskOutcome>& pass) const override {
    const auto sum = [&](const char* c) {
      double total = 0.0;
      for (const TaskOutcome& outcome : pass) {
        total += static_cast<double>(counterValue(outcome.counters, c));
      }
      return total;
    };
    const double hits = sum("lpt_hits");
    const double splits = sum("lpt_misses");
    const double cacheHits = sum("cache_hits");
    const double cacheMisses = sum("cache_misses");
    return {
        {"small.sim.lpt_hit_ratio", ratio(hits, hits + splits)},
        {"small.sim.splits", splits},
        {"small.sim.merges", sum("lp.merges")},
        {"small.sim.pseudo_overflows", sum("lp.pseudo_overflows")},
        {"small.sim.cycle_recoveries", sum("lp.cycle_recoveries")},
        {"small.sim.ref_ops", sum("lpt.ref_ops")},
        {"cache.hits", cacheHits},
        {"cache.misses", cacheMisses},
        {"cache.hit_ratio", ratio(cacheHits, cacheHits + cacheMisses)},
    };
  }

  std::uint64_t inputEvents() const override { return events_; }

 private:
  static constexpr std::size_t kReplicas = 4;
  /// LPT sizes as fractions of the knee: the rungs below 1 run
  /// compression and cycle recovery, the rungs above it do not.
  static constexpr double kLadder[] = {0.6, 0.8, 0.9, 1.1, 1.3, 2.0};

  struct Input {
    std::string name;
    trace::PreprocessedTrace pre;
    std::uint64_t carCdr = 0;
    std::uint64_t rplac = 0;
    std::uint32_t knee = 0;
  };
  struct Task {
    std::size_t input = 0;
    double fraction = 0.0;
    std::uint32_t size = 0;
    std::uint64_t seed = 0;
  };

  std::uint64_t seed_;
  std::uint64_t events_ = 0;
  std::vector<Input> inputs_;
  std::vector<Task> tasks_;
};

// ---------------------------------------------------------------------------
// heap_gc

std::vector<trace::WorkloadProfile> chapter3Profiles(double scale) {
  return {trace::slangProfile(scale), trace::plagenProfile(scale),
          trace::lyraProfile(scale), trace::editorProfile(scale),
          trace::pearlProfile(scale)};
}

constexpr gc::Policy kMachinePolicies[] = {
    gc::Policy::kNone, gc::Policy::kMarkSweep, gc::Policy::kGenerational,
    gc::Policy::kIncremental};

/// The machine's logical counters: they depend only on the trace and the
/// seed, never on the heap backend.
std::vector<Counter> logicalCounters(const core::ReplayResult& r) {
  const core::SmallMachine::Stats& m = r.machine;
  return {{"prims", r.primitives},
          {"residual_entries", r.residualEntries},
          {"machine.gets", m.gets},
          {"machine.frees", m.frees},
          {"machine.splits", m.splits},
          {"machine.hits", m.hits},
          {"machine.merges", m.merges},
          {"machine.conses", m.conses},
          {"machine.modifies", m.modifies},
          {"machine.read_lists", m.readLists},
          {"machine.pseudo_overflows", m.pseudoOverflows},
          {"machine.ref_ops", m.refOps},
          {"machine.cycle_recoveries", m.cycleRecoveries},
          {"machine.peak_entries", m.peakEntriesInUse}};
}

/// One task per trace: the trace replayed on every heap backend under
/// every machine GC policy, then turned into a gc::Script that runs on the
/// LPT baseline and on every collector x backend. Every run is checked
/// against its reference inside the task.
class HeapGc final : public Workload {
 public:
  explicit HeapGc(std::uint64_t seed) : seed_(seed) {}

  void setup(Calls& calls) override {
    inputs_.clear();
    events_ = 0;
    for (std::size_t r = 0; r < kReplicas; ++r) {
      for (const trace::WorkloadProfile& profile : chapter3Profiles(kScale)) {
        const std::size_t index = inputs_.size();
        trace::Trace raw = generateTrace(
            calls, profile, support::deriveTaskSeed(seed_, index));
        events_ += raw.events().size();
        Input input;
        input.name = profile.name + "#" + std::to_string(r);
        input.pre = preprocessTrace(calls, raw);
        inputs_.push_back(std::move(input));
      }
    }
  }

  void calibrate(Calls& calls) override {
    // Each trace gets the smallest LPT from a ladder below its knee (peak
    // occupancy on an unconstrained table) that every machine policy can
    // run without exhausting, so compression happens but no
    // replay exhausts it. The machine's table logic is backend-independent,
    // so trying one backend suffices.
    for (std::size_t t = 0; t < inputs_.size(); ++t) {
      const std::uint32_t knee =
          calls.run(Layer::kSmall, "core::replayTrace", "calibrate.knee_s",
                    [&] {
                      return core::replayTrace(
                          replayConfig(t, gc::Policy::kNone,
                                       heap::HeapBackendKind::kTwoPointer,
                                       1u << 16),
                          inputs_[t].pre);
                    })
              .machine.peakEntriesInUse;
      inputs_[t].tableSize = 2 * knee;
      for (const double fraction : kTableLadder) {
        const std::uint32_t size = std::max<std::uint32_t>(
            16, static_cast<std::uint32_t>(knee * fraction));
        bool fits = true;
        for (const gc::Policy policy : kMachinePolicies) {
          try {
            calls.run(Layer::kSmall, "core::replayTrace", "calibrate.table_s",
                      [&] {
                        return core::replayTrace(
                            replayConfig(t, policy,
                                         heap::HeapBackendKind::kTwoPointer,
                                         size),
                            inputs_[t].pre);
                      });
          } catch (const std::exception& error) {
            // Only an exhausted table means "too small". Any other error is
            // a defect, which the task must then report at this size.
            fits = std::string_view(error.what()).find("LPT exhausted") ==
                   std::string_view::npos;
            break;
          }
        }
        if (fits) {
          inputs_[t].tableSize = size;
          break;
        }
      }
    }
  }

  std::size_t taskCount() const override { return inputs_.size(); }
  std::string taskName(std::size_t t) const override {
    return "heap_gc/" + inputs_[t].name;
  }

  TaskOutcome runTask(std::size_t t, Calls& calls) override {
    const trace::PreprocessedTrace& pre = inputs_[t].pre;
    const std::string name = taskName(t);
    TaskOutcome out;
    Counters& c = out.counters;
    const auto fail = [&](std::string message) {
      if (out.failure.empty()) out.failure = name + ": " + std::move(message);
    };
    c.push_back({"lpt_size", inputs_[t].tableSize});

    for (const gc::Policy policy : kMachinePolicies) {
      // kAllHeapBackendKinds starts with the two-pointer reference.
      std::vector<Counter> reference;
      for (const heap::HeapBackendKind kind : heap::kAllHeapBackendKinds) {
        const core::ReplayConfig config =
            replayConfig(t, policy, kind, inputs_[t].tableSize);
        const std::string backend = heap::heapBackendName(kind);
        const core::ReplayResult r = calls.run(
            Layer::kSmall, "core::replayTrace", "small.replay_s." + backend,
            [&] { return core::replayTrace(config, pre); });
        out.prims += r.primitives;
        const std::string prefix =
            std::string("replay.") + gc::policyName(policy) + "." + backend +
            ".";
        addReplay(c, prefix, r);
        if (r.primitives != pre.primitiveCount) {
          fail(prefix + "prims " + std::to_string(r.primitives) +
               " != trace primitives " + std::to_string(pre.primitiveCount));
        }
        const std::vector<Counter> logical = logicalCounters(r);
        if (reference.empty()) {
          reference = logical;
          continue;
        }
        for (std::size_t i = 0; i < logical.size(); ++i) {
          if (logical[i].value != reference[i].value) {
            fail(prefix + logical[i].name + " " +
                 std::to_string(logical[i].value) +
                 " differs from two-pointer " +
                 std::to_string(reference[i].value));
          }
        }
      }
    }

    // Several scripts per trace, so the collectors are a measurable share
    // of the task next to the machine replays.
    gc::Collector::Options collectorOptions;
    collectorOptions.triggerLiveCells = kCollectorTrigger;
    for (std::size_t k = 0; k < kScriptsPerTrace; ++k) {
      std::string id = "s";  // (appended: GCC 12 -Wrestrict misfires on +)
      id += std::to_string(k);
      id += '.';
      gc::ScriptOptions scriptOptions;
      const gc::Script script = calls.run(
          Layer::kGc, "gc::scriptFromTrace", "gc.script_build_s", [&] {
            return gc::scriptFromTrace(
                pre, scriptOptions,
                support::deriveTaskSeed(seed_,
                                        2000 + kScriptsPerTrace * t + k));
          });
      std::uint64_t hash = 1469598103934665603ull;
      for (const gc::ScriptOp& op : script.ops) {
        for (const std::uint64_t v :
             {static_cast<std::uint64_t>(op.kind),
              static_cast<std::uint64_t>(op.dst),
              static_cast<std::uint64_t>(op.a),
              static_cast<std::uint64_t>(op.b),
              static_cast<std::uint64_t>(op.length),
              static_cast<std::uint64_t>(op.share)}) {
          hash = (hash ^ v) * 1099511628211ull;
        }
      }
      c.push_back({id + "script.ops", script.ops.size()});
      c.push_back({id + "script.ops_hash", hash});

      const core::GcBaselineResult baseline =
          calls.run(Layer::kSmall, "core::runScriptOnLpt", "gc.baseline_s",
                    [&] { return core::runScriptOnLpt(script); });
      out.prims += pre.primitiveCount;
      c.push_back({id + "baseline.live", baseline.finalLiveEntries});
      c.push_back({id + "baseline.cycle_reclaimed", baseline.cycleReclaimed});
      c.push_back({id + "baseline.lazy_settled", baseline.lazySettled});
      addLpt(c, id + "baseline.lpt.", baseline.lptStats);

      for (const gc::Policy policy : gc::kAllCollectorPolicies) {
        for (const heap::HeapBackendKind kind : heap::kAllHeapBackendKinds) {
          heap::HeapStats heapStats;
          const gc::ScriptResult r = calls.run(
              Layer::kGc, "gc::runScript",
              std::string("gc.script_s.") + gc::policyName(policy), [&] {
                const auto backend = heap::makeHeapBackend(kind);
                const auto collector =
                    gc::makeCollector(policy, *backend, collectorOptions);
                gc::ScriptResult result = gc::runScript(*collector, script);
                heapStats = backend->stats();
                return result;
              });
          out.prims += pre.primitiveCount;
          const std::string prefix = std::string("script.") +
                                     gc::policyName(policy) + "." +
                                     heap::heapBackendName(kind) + "." + id;
          c.push_back({prefix + "live", r.finalLiveCells});
          addGc(c, prefix + "gc.", r.stats);
          addHeap(c, prefix + "heap.", heapStats);
          using std::to_string;
          const std::vector<std::uint64_t>& want = baseline.rootReachable;
          if (r.finalLiveCells != baseline.finalLiveEntries) {
            fail(prefix + "live " + to_string(r.finalLiveCells) +
                 " != LPT baseline " + to_string(baseline.finalLiveEntries));
          } else if (r.rootReachable.size() != want.size()) {
            fail(prefix + "root slots " + to_string(r.rootReachable.size()) +
                 " != LPT baseline " + to_string(want.size()));
          } else if (r.rootReachable != want) {
            std::size_t s = 0;
            while (r.rootReachable[s] == want[s]) ++s;
            fail(prefix + "root " + to_string(s) + " reaches " +
                 to_string(r.rootReachable[s]) + " cells, LPT baseline " +
                 to_string(want[s]));
          }
        }
      }
    }
    return out;
  }

  std::vector<LayerValue> layerCounts(
      const std::vector<TaskOutcome>& pass) const override {
    std::vector<LayerValue> out;
    const auto sum = [&](const std::string& prefix, const std::string& suffix) {
      return matching(pass, prefix, suffix, false);
    };
    const auto max = [&](const std::string& prefix, const std::string& suffix) {
      return matching(pass, prefix, suffix, true);
    };
    for (const char* c :
         {"splits", "hits", "pseudo_overflows", "cycle_recoveries"}) {
      out.push_back({std::string("small.machine.") + c,
                     sum("replay.", std::string(".machine.") + c)});
    }
    for (const heap::HeapBackendKind kind : heap::kAllHeapBackendKinds) {
      const std::string backend = heap::heapBackendName(kind);
      out.push_back({"heap.touches_per_prim." + backend,
                     ratio(sum("replay.", "." + backend + ".heap.touches"),
                           sum("replay.", "." + backend + ".prims"))});
      out.push_back({"heap.peak_live_cells." + backend,
                     max("replay.", "." + backend + ".heap.peak_live_cells")});
    }
    for (const gc::Policy policy : gc::kAllCollectorPolicies) {
      const std::string name = gc::policyName(policy);
      const std::string prefix = "script." + name + ".";
      out.push_back(
          {"gc.pause_max_units." + name, max(prefix, ".gc.max_pause")});
      out.push_back(
          {"gc.pause_total_units." + name, sum(prefix, ".gc.total_pause")});
      out.push_back({"gc.traced_per_reclaimed." + name,
                     ratio(sum(prefix, ".gc.traced"),
                           sum(prefix, ".gc.reclaimed"))});
    }
    for (const gc::Policy policy : kMachinePolicies) {
      if (policy == gc::Policy::kNone) continue;
      const std::string name = gc::policyName(policy);
      const std::string prefix = "replay." + name + ".";
      out.push_back(
          {"gc.machine.collections." + name, sum(prefix, ".gc.collections")});
      out.push_back(
          {"gc.machine.pause_max_units." + name, max(prefix, ".gc.max_pause")});
    }
    return out;
  }

  std::uint64_t inputEvents() const override { return events_; }

 private:
  static constexpr std::size_t kReplicas = 20;
  static constexpr double kScale = 0.05;
  static constexpr double kTableLadder[] = {0.75, 0.9, 1.0};
  static constexpr std::size_t kScriptsPerTrace = 2;
  static constexpr std::uint64_t kCollectorTrigger = 256;

  struct Input {
    std::string name;
    trace::PreprocessedTrace pre;
    std::uint32_t tableSize = 0;  ///< machine LPT entries (calibrated)
  };

  core::ReplayConfig replayConfig(std::size_t t, gc::Policy policy,
                                  heap::HeapBackendKind kind,
                                  std::uint32_t tableSize) const {
    core::ReplayConfig config;
    config.machine.tableSize = tableSize;
    config.machine.heapBackend = kind;
    config.machine.gcPolicy = policy;
    config.machine.gcTriggerCells = 1024;
    config.seed = support::deriveTaskSeed(seed_, 1000 + t);
    return config;
  }

  std::uint64_t seed_;
  std::uint64_t events_ = 0;
  std::vector<Input> inputs_;
};

// ---------------------------------------------------------------------------
// service_mixed

class ServiceMixed final : public Workload {
 public:
  ServiceMixed(std::uint64_t seed, std::string scratchDir)
      : seed_(seed),
        scratchDir_(std::move(scratchDir)),
        concurrency_(static_cast<int>(std::clamp<unsigned>(
            std::thread::hardware_concurrency(), 1, 4))) {}

  ~ServiceMixed() override {
    mapped_.clear();
    removeFiles();
    std::error_code ignored;
    std::filesystem::remove(scratchDir_, ignored);  // only if empty
  }

  void setup(Calls& calls) override {
    mapped_.clear();
    removeFiles();
    events_ = 0;
    std::vector<std::uint64_t> tenantPrims;
    std::filesystem::create_directories(scratchDir_);
    // Every tenant is about the same length, so a roster's sessions share
    // the threads evenly.
    std::vector<trace::WorkloadProfile> profiles = chapter3Profiles(1.0);
    for (trace::WorkloadProfile& profile : profiles) {
      profile.primitiveCalls = kTenantPrims;
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
      // Paper-profile tenants interleaved with the three scenario families.
      trace::Trace raw;
      const std::uint64_t seed = support::deriveTaskSeed(seed_, t);
      if (t % 2 == 0) {
        raw = generateTrace(calls, profiles[(t / 2) % profiles.size()], seed);
      } else {
        namespace fam = workloads::families;
        fam::FamilyConfig config;
        config.scale = kTenantPrims;
        config.seed = seed;
        const fam::FamilyKind kind =
            fam::kAllFamilies[(t / 2) % std::size(fam::kAllFamilies)];
        raw = calls.run(Layer::kWorkloads, "families::generateTrace",
                        "workloads.family_generate_s",
                        [&] { return fam::generateTrace(kind, config); });
      }
      events_ += raw.events().size();
      tenantPrims.push_back(raw.primitiveLength());
      const std::string path =
          scratchDir_ + "/tenant" + std::to_string(t) + ".smtr";
      calls.run(Layer::kTrace, "trace::saveFile", "trace.encode_s", [&] {
        trace::saveFile(raw, path, trace::FileFormat::kBinary);
      });
      files_.push_back(path);
      mapped_.push_back(calls.run(Layer::kTrace, "trace::MappedTrace::open",
                                  "trace.encode_s", [&] {
                                    return trace::MappedTrace::open(path);
                                  }));
    }
    // Each roster draws half its tenants from the paper profiles and half
    // from the families.
    rosters_.clear();
    for (std::size_t r = 0; r < kRosters; ++r) {
      support::Rng rng(support::deriveTaskSeed(seed_, 5000 + r));
      Roster roster;
      for (std::size_t parity = 0; parity < 2; ++parity) {
        std::vector<std::size_t> pool;
        for (std::size_t t = parity; t < kTenants; t += 2) pool.push_back(t);
        std::shuffle(pool.begin(), pool.end(), rng);
        for (std::size_t i = 0; i < kRosterSize / 2; ++i) {
          roster.sources.push_back({nullptr, &mapped_[pool[i]]});
          roster.prims += tenantPrims[pool[i]];
        }
      }
      rosters_.push_back(std::move(roster));
    }
  }

  /// Task 2r is roster r on one thread (the reference), 2r+1 the same
  /// roster on concurrency() threads.
  std::size_t taskCount() const override { return 2 * kRosters; }
  bool timed(std::size_t t) const override { return t % 2 == 1; }

  std::string taskName(std::size_t t) const override {
    return "service/roster" + std::to_string(t / 2) + "@" +
           std::to_string(threads(t));
  }

  TaskOutcome runTask(std::size_t t, Calls& calls) override {
    const Roster& roster = rosters_[t / 2];
    multilisp::ServiceConfig config;
    config.shardCount = 4;
    config.replay.machine.gcPolicy = gc::Policy::kIncremental;
    config.replay.machine.gcTriggerCells = 1024;
    config.replay.seed = support::deriveTaskSeed(seed_, 3000 + t / 2);
    const multilisp::ServiceResult r = calls.run(
        Layer::kMultilisp, "multilisp::runService", "multilisp.run_s", [&] {
          return multilisp::runService(config, roster.sources, threads(t));
        });
    if (timed(t)) {
      for (std::size_t s = 0; s < r.shardAcquisitions.size(); ++s) {
        acquisitions_ += r.shardAcquisitions[s];
        contended_ += r.shardContended[s];
      }
    }
    TaskOutcome out;
    out.prims = r.totalPrimitives;
    Counters& c = out.counters;
    for (std::size_t i = 0; i < r.sessions.size(); ++i) {
      const multilisp::SessionStats& s = r.sessions[i];
      Counters session;
      addReplay(session, "", s.replay);
      session.push_back({"published", s.published});
      session.push_back({"ref_copies", s.refCopies});
      session.push_back({"ref_destroys", s.refDestroys});
      session.push_back({"indirections", s.indirections});
      session.push_back({"queue.enqueued", s.queue.enqueued});
      session.push_back({"queue.combined", s.queue.combined});
      session.push_back({"queue.messages", s.queue.messages});
      session.push_back({"queue.flushes", s.queue.flushes});
      session.push_back({"queue.depth_samples", s.queueDepths.total()});
      const std::string p = "session" + std::to_string(i) + ".";
      for (Counter& counter : session) {
        c.push_back({p + counter.name, counter.value});
      }
    }
    for (std::size_t s = 0; s < r.shardLpt.size(); ++s) {
      addLpt(c, "shard" + std::to_string(s) + ".", r.shardLpt[s]);
    }
    c.push_back({"residual_objects", r.residualObjects});
    c.push_back({"residual_entries", r.residualEntries});
    const std::string name = taskName(t);
    using std::to_string;
    if (r.residualObjects != 0 || r.residualEntries != 0) {
      out.failure = name + ": residual objects " +
                    to_string(r.residualObjects) + ", entries " +
                    to_string(r.residualEntries) +
                    " after shutdown (weight leak)";
    } else if (r.totalPrimitives != roster.prims) {
      out.failure = name + ": replayed primitives " +
                    to_string(r.totalPrimitives) + " != roster primitives " +
                    to_string(roster.prims);
    }
    return out;
  }

  std::vector<std::pair<std::size_t, std::string>> crossCheck(
      const std::vector<TaskOutcome>& pass) const override {
    // The deterministic plane (sessions + shard LPT totals) must not depend
    // on the thread count.
    std::vector<std::pair<std::size_t, std::string>> failures;
    for (std::size_t t = 1; t < pass.size(); t += 2) {
      const std::string difference =
          counterDifference(pass[t].counters, pass[t - 1].counters);
      if (!difference.empty()) {
        failures.push_back({t, taskName(t) + ": " + difference + " at " +
                                   taskName(t - 1)});
      }
    }
    return failures;
  }

  std::vector<LayerValue> layerCounts(
      const std::vector<TaskOutcome>& pass) const override {
    std::vector<TaskOutcome> timedRuns;
    for (std::size_t t = 1; t < pass.size(); t += 2) {
      timedRuns.push_back(pass[t]);
    }
    const auto sum = [&](const std::string& suffix) {
      return matching(timedRuns, "session", suffix, false);
    };
    const std::string incremental = gc::policyName(gc::Policy::kIncremental);
    return {
        {"small.machine.splits", sum(".machine.splits")},
        {"small.machine.hits", sum(".machine.hits")},
        {"small.machine.pseudo_overflows", sum(".machine.pseudo_overflows")},
        {"small.machine.cycle_recoveries", sum(".machine.cycle_recoveries")},
        {"gc.machine.collections." + incremental, sum(".gc.collections")},
        {"gc.machine.pause_max_units." + incremental,
         matching(timedRuns, "session", ".gc.max_pause", true)},
        {"multilisp.contended_ratio",
         ratio(static_cast<double>(contended_),
               static_cast<double>(acquisitions_))},
        {"multilisp.queue_messages", sum(".queue.messages")},
        {"multilisp.combined_ratio",
         ratio(sum(".queue.combined"), sum(".queue.enqueued"))},
    };
  }

  int concurrency() const override { return concurrency_; }
  std::uint64_t inputEvents() const override { return events_; }

 private:
  static constexpr std::size_t kTenants = 16;
  static constexpr std::size_t kRosters = 100;
  static constexpr std::size_t kRosterSize = 8;
  static constexpr std::uint64_t kTenantPrims = 6000;

  struct Roster {
    std::vector<multilisp::SessionSource> sources;
    std::uint64_t prims = 0;
  };

  int threads(std::size_t t) const { return timed(t) ? concurrency_ : 1; }

  void removeFiles() {
    std::error_code ignored;
    for (const std::string& file : files_) {
      std::filesystem::remove(file, ignored);
    }
    files_.clear();
  }

  std::uint64_t seed_;
  std::string scratchDir_;
  int concurrency_;
  std::uint64_t events_ = 0;
  std::vector<std::string> files_;
  std::vector<trace::MappedTrace> mapped_;
  std::vector<Roster> rosters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
};

}  // namespace

std::string counterDifference(const std::vector<Counter>& got,
                              const std::vector<Counter>& want) {
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i < got.size() && i < want.size() && got[i].name == want[i].name &&
        got[i].value == want[i].value) {
      continue;
    }
    return (i < got.size()
                ? got[i].name + " = " + std::to_string(got[i].value)
                : std::string("missing counter")) +
           ", expected " +
           (i < want.size() ? std::to_string(want[i].value) : "nothing");
  }
  return {};
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       const std::string& scratchDir) {
  if (name == "paper_sim") return std::make_unique<PaperSim>(seed);
  if (name == "heap_gc") return std::make_unique<HeapGc>(seed);
  if (name == "service_mixed") {
    return std::make_unique<ServiceMixed>(seed, scratchDir);
  }
  return nullptr;
}

}  // namespace perfbench
