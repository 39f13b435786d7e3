// The benchmark's three closed-loop workloads (see README.md for why each
// was chosen and which layers it exercises).
//
// A workload is set up once per setup round (inputs built, native reference
// run, deep-dive compile), then runs tasks in rounds: one client, each task
// starting only after the previous one finished. Every task checks its own
// outputs and returns the exact simulated counts of the runs it made; the
// benchmark compares them task by task against the first round.

#ifndef MIRA_PERFBENCH_WORKLOADS_H_
#define MIRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/interpreter.h"
#include "src/net/fault_injector.h"
#include "src/pipeline/world.h"
#include "src/runtime/plan.h"
#include "src/support/status.h"

namespace mira::perfbench {

// Exact simulated statistics, keyed by metric name. Deterministic for a
// given (workload, seed): the per-task fingerprint.
using Counts = std::map<std::string, uint64_t>;

void AddCounts(Counts& into, const Counts& from);

// One measured program execution on a fresh world.
struct SimSpec {
  const ir::Module* module = nullptr;
  pipeline::SystemKind kind = pipeline::SystemKind::kMira;
  uint64_t local_bytes = 0;
  runtime::CachePlan plan;
  uint64_t seed = 0;
  bool profiling = false;
  const net::FaultPlan* faults = nullptr;
  bool integrity = false;
  const farmem::ClusterConfig* cluster = nullptr;
  // Snapshot backend + run-profile metrics into the global registry, as
  // every bench run does (the telemetry layer's per-run cost).
  bool publish = true;
};

struct SimOutput {
  bool ok = false;
  support::ErrorCode code = support::ErrorCode::kOk;
  std::string error;
  uint64_t result = 0;
  uint64_t sim_ns = 0;
  interp::RunProfile profile;
  Counts counts;  // see Simulate()
};

// Runs `spec` through the library's public API with the bytecode engine
// pinned. When a tracer is active the world's backend is wrapped in a
// TracingBackend and each step gets a span. `counts` holds interp.instrs,
// net.*, cache.*, swap.*, net.fault.*, net.retry.*, integrity.*,
// farmem.cluster.* and model.sim_ns.<system>.
SimOutput Simulate(const SimSpec& spec);

struct TaskResult {
  bool ok = true;
  std::string error;  // first failed check
  Counts counts;
  // Host-side measurements of this task (e.g. optimizer wall ms).
  std::map<std::string, double> host;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Builds inputs from `seed` (interpreter kRand seed and fault-plan seed;
  // profiling stays on the training seed) and runs every step before the
  // first task. Safe to call again: each call starts from scratch.
  virtual void Setup(uint64_t seed) = 0;
  virtual size_t tasks_per_round() const = 0;
  // Task `index` (< tasks_per_round()) of a round.
  virtual TaskResult RunTask(size_t index) = 0;
  // Short label of task `index` for reports ("lossy", "mem50", ...).
  virtual std::string TaskLabel(size_t index) const = 0;
  // Host measurements of the optimizer's thread-pool fan-out, taken once
  // outside the timed loop by the traced run (sweep_graph only).
  virtual std::map<std::string, double> PoolProbe() { return {}; }
};

// "replay_gpt2", "sweep_graph" or "faults_graph"; null for any other name.
// `pool_jobs` is the host thread count of sweep_graph's PoolProbe.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, int pool_jobs);

// The names MakeWorkload accepts, for usage messages.
const std::vector<std::string>& WorkloadNames();

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_WORKLOADS_H_
