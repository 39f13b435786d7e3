#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>

#include "src/analysis/access_analysis.h"
#include "src/backends/fastswap_backend.h"
#include "src/backends/leap_backend.h"
#include "src/backends/mira_backend.h"
#include "src/interp/bytecode.h"
#include "src/interp/compiler.h"
#include "src/pipeline/optimizer.h"
#include "src/pipeline/planner.h"
#include "src/support/check.h"
#include "src/telemetry/telemetry.h"
#include "src/workloads/workloads.h"
#include "tracing.h"

namespace mira::perfbench {

namespace {

// Profiling and optimizer sampling always use the training input; only the
// measured runs see the command-line seed (deployment inputs differ from
// training inputs, as in the paper's Fig-1 loop).
constexpr uint64_t kTrainSeed = 42;
constexpr interp::EngineKind kEngine = interp::EngineKind::kBytecode;

// Built explicitly instead of IntegrityConfig::FromEnv(): the benchmark
// always measures the non-paranoid ladder.
integrity::IntegrityConfig BenchIntegrityConfig() {
  integrity::IntegrityConfig config;
  config.enabled = true;
  config.paranoid = false;
  return config;
}

uint64_t LocalBytes(const workloads::Workload& w, int percent) {
  return w.footprint_bytes * static_cast<uint64_t>(percent) / 100;
}

pipeline::PlannerOptions Techniques(bool offload) {
  pipeline::PlannerOptions t;
  t.enable_sections = true;
  t.enable_prefetch = true;
  t.enable_evict_hints = true;
  t.enable_batching = true;
  t.enable_promote = true;
  t.enable_selective = true;
  t.enable_offload = offload;
  return t;
}

// graph_traversal with `num_edges` edges, a quarter as many nodes and 2
// epochs (30K edges is the bench_interp_throughput size).
workloads::Workload BuildReducedGraph(int64_t num_edges) {
  workloads::GraphParams p;
  p.num_edges = num_edges;
  p.num_nodes = num_edges / 4;
  p.epochs = 2;
  return workloads::BuildGraphTraversal(p);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void AddSectionStats(Counts& c, const cache::SectionStats& s) {
  c["cache.hits"] += s.lines.hits;
  c["cache.misses"] += s.lines.misses;
  c["cache.prefetch_issued"] += s.prefetches_issued;
  c["cache.prefetch_useful"] += s.prefetched_hits;
  c["cache.inflight.joins"] += s.inflight_joins;
  c["cache.coalesced.lines"] += s.coalesced_lines;
  c["cache.writebacks"] += s.writebacks;
}

Counts CollectCounts(const pipeline::World& world, pipeline::SystemKind kind,
                     const interp::Interpreter& in, uint64_t sim_ns) {
  Counts c;
  c["interp.instrs"] = in.instrs_executed();
  c[std::string("model.sim_ns.") + pipeline::SystemName(kind)] = sim_ns;
  const net::NetworkStats& ns = world.net->stats();
  c["net.messages"] = ns.messages;
  c["net.bytes"] = ns.total_bytes();
  const net::InflightStats& is = world.net->inflight_stats();
  c["net.inflight.registered"] = is.registered;
  c["net.inflight.joined"] = is.joined;
  if (world.faults != nullptr) {
    const net::FaultStats& fs = world.net->fault_stats();
    const uint64_t silent = fs.corrupt_deliveries + fs.stale_deliveries + fs.duplicated_verbs;
    c["net.fault.failed_attempts"] = fs.faulted_attempts();
    c["net.fault.unavailable"] = fs.unavailable;
    c["net.fault.silent"] = silent;
    c["net.fault.torn"] = fs.torn_writebacks;
    c["net.fault.node_failures"] = fs.node_failures;
    c["net.fault.injected"] =
        fs.faulted_attempts() + fs.tail_events + silent + fs.torn_writebacks + fs.node_failures;
    c["net.retry.attempts"] = fs.retries;
    c["net.retry.recovered"] = fs.recovered;
    c["net.retry.exhausted"] = fs.exhausted;
  }
  switch (kind) {
    case pipeline::SystemKind::kMira: {
      auto* mira = static_cast<backends::MiraBackend*>(world.backend.get());
      for (uint32_t i = 0; i < mira->plan().sections.size(); ++i) {
        AddSectionStats(c, mira->SectionStatsAt(i));
      }
      AddSectionStats(c, mira->swap_stats());
      break;
    }
    case pipeline::SystemKind::kFastSwap: {
      const auto* swap = static_cast<const backends::FastSwapBackend*>(world.backend.get());
      c["swap.major_faults"] = swap->swap_stats().lines.misses;
      break;
    }
    case pipeline::SystemKind::kLeap: {
      const auto* swap = static_cast<const backends::LeapBackend*>(world.backend.get());
      c["swap.major_faults"] = swap->swap_stats().lines.misses;
      break;
    }
    default:
      break;
  }
  if (world.integrity != nullptr) {
    const integrity::IntegrityStats& s = world.integrity->stats();
    c["integrity.fetches_verified"] = s.fetches_verified;
    c["integrity.detected"] = s.detected;
    c["integrity.healed"] = s.healed;
    c["integrity.quarantined"] = s.quarantined;
  }
  if (world.cluster != nullptr) {
    const farmem::ClusterStats& s = world.cluster->stats();
    c["farmem.cluster.crashes"] = s.crashes;
    c["farmem.cluster.failovers"] = s.failovers;
    c["farmem.cluster.rereplicated_bytes"] = s.rereplicated_bytes;
    c["farmem.cluster.quarantined_chunks"] = s.quarantined_chunks;
    c["farmem.cluster.lost"] = s.lost_reads + s.lost_writes;
  }
  return c;
}

// Records the first failed check of a task.
void Expect(TaskResult& r, bool cond, const std::string& what) {
  if (!cond && r.ok) {
    r.ok = false;
    r.error = what;
  }
}

// Result of the native full-local-memory run at `seed`: every measured
// run's output must equal it.
uint64_t NativeResult(const workloads::Workload& w, uint64_t seed) {
  SpanScope span("pipeline.native_run");
  SimSpec spec;
  spec.module = w.module.get();
  spec.kind = pipeline::SystemKind::kNative;
  spec.seed = seed;
  spec.publish = false;
  const SimOutput out = Simulate(spec);
  MIRA_CHECK_MSG(out.ok, out.error.c_str());
  return out.result;
}

struct Compiled {
  ir::Module module;
  runtime::CachePlan plan;
};

// Deep-dive compilation (full analysis scope, one profiling run, no
// iterative search), step by step so each pipeline layer gets its own span.
std::unique_ptr<Compiled> DeepDiveCompile(const workloads::Workload& w, uint64_t local_bytes,
                                          const pipeline::PlannerOptions& toggles) {
  interp::RunProfile profile;
  {
    SpanScope span("pipeline.profile_run");
    SimSpec spec;
    spec.module = w.module.get();
    spec.kind = pipeline::SystemKind::kMira;
    spec.local_bytes = local_bytes;
    spec.seed = kTrainSeed;
    spec.profiling = true;
    spec.publish = false;
    SimOutput out = Simulate(spec);
    MIRA_CHECK_MSG(out.ok, out.error.c_str());
    profile = std::move(out.profile);
  }
  analysis::AccessAnalysis access(w.module.get());
  {
    SpanScope span("analysis.run");
    access.Run();
  }
  pipeline::PlannerOptions popts = toggles;
  popts.local_bytes = local_bytes;
  popts.func_frac = 1.0;
  popts.obj_frac = 1.0;
  std::optional<pipeline::PlanDraft> draft;
  {
    SpanScope span("pipeline.derive_plan");
    draft = pipeline::DerivePlan(*w.module, access, profile, sim::CostModel::Default(), popts);
  }
  auto out = std::make_unique<Compiled>();
  {
    SpanScope span("passes.compile");
    out->module = pipeline::CompileWithPlan(*w.module, *draft, popts, w.entry);
  }
  {
    // The interpreter compiles through the process-wide code cache, which
    // a repeated setup would hit; compiling directly keeps every setup
    // paying the same bytecode-compiler cost.
    SpanScope span("interp.bytecode_compile");
    const interp::bytecode::BytecodeModule code = interp::bytecode::CompileModule(out->module);
    MIRA_CHECK(!code.funcs.empty());
  }
  out->plan = draft->plan;
  return out;
}

// ---- replay_gpt2 ----

class ReplayGpt2 final : public Workload {
 public:
  const char* name() const override { return "replay_gpt2"; }

  void Setup(uint64_t seed) override {
    seed_ = seed;
    {
      SpanScope span("workloads.build");
      w_ = workloads::BuildGpt2();
    }
    local_ = LocalBytes(w_, 25);
    native_ = NativeResult(w_, seed);
    compiled_ = DeepDiveCompile(w_, local_, Techniques(/*offload=*/false));
  }

  size_t tasks_per_round() const override { return 1; }
  std::string TaskLabel(size_t) const override { return "mira25"; }

  TaskResult RunTask(size_t) override {
    TaskResult r;
    SimSpec spec;
    spec.module = &compiled_->module;
    spec.local_bytes = local_;
    spec.plan = compiled_->plan;
    spec.seed = seed_;
    const SimOutput out = Simulate(spec);
    SpanScope span("bench.check");
    Expect(r, out.ok, "mira run failed: " + out.error);
    Expect(r, out.result == native_, "mira result differs from native");
    r.counts = out.counts;
    return r;
  }

 private:
  uint64_t seed_ = 0;
  workloads::Workload w_;
  uint64_t local_ = 0;
  uint64_t native_ = 0;
  std::unique_ptr<Compiled> compiled_;
};

// ---- sweep_graph ----

class SweepGraph final : public Workload {
 public:
  explicit SweepGraph(int pool_jobs) : pool_jobs_(pool_jobs) {}

  const char* name() const override { return "sweep_graph"; }

  void Setup(uint64_t seed) override {
    seed_ = seed;
    {
      SpanScope span("workloads.build");
      w_ = BuildReducedGraph(kSweepEdges);
    }
    native_ = NativeResult(w_, seed);
  }

  size_t tasks_per_round() const override { return kPercents.size(); }
  std::string TaskLabel(size_t index) const override {
    return "mem" + std::to_string(kPercents[index]);
  }

  std::map<std::string, double> PoolProbe() override {
    TaskResult r;
    const double cpu0 = CpuSeconds();
    Optimize(LocalBytes(w_, kPercents[0]), pool_jobs_, &r);
    const double wall_ms = r.host["pipeline.optimize_ms"];
    return {{"pool.jobs", pool_jobs_},
            {"pool.optimize_ms", wall_ms},
            {"pool.cpu_util", (CpuSeconds() - cpu0) / (wall_ms / 1e3 * pool_jobs_)}};
  }

  TaskResult RunTask(size_t index) override {
    TaskResult r;
    const uint64_t local = LocalBytes(w_, kPercents[index]);
    // Timed tasks optimize serially: with the sampling grid fanned out over
    // every vCPU, the ParallelFor barrier waits for whichever vCPU another
    // tenant is slowing, and this workload's host time swung by 1.7x between
    // identical runs. The fan-out is measured by PoolProbe instead.
    const pipeline::CompiledProgram program = Optimize(local, /*jobs=*/1, &r);

    for (const pipeline::SystemKind kind :
         {pipeline::SystemKind::kMira, pipeline::SystemKind::kFastSwap,
          pipeline::SystemKind::kLeap, pipeline::SystemKind::kAifm}) {
      SimSpec spec;
      spec.kind = kind;
      spec.local_bytes = local;
      spec.seed = seed_;
      if (kind == pipeline::SystemKind::kMira) {
        spec.module = &program.module;
        spec.plan = program.plan;
      } else {
        spec.module = w_.module.get();
      }
      const SimOutput out = Simulate(spec);
      SpanScope span("bench.check");
      const std::string system = pipeline::SystemName(kind);
      if (kind == pipeline::SystemKind::kAifm && !out.ok &&
          out.code == support::ErrorCode::kOutOfMemory) {
        // AIFM's pointer metadata exhausting local memory is a modeled
        // outcome (paper Figs 5/18), not a benchmark failure.
        r.counts["model.aifm_dnf"] += 1;
        continue;
      }
      Expect(r, out.ok, system + " run failed: " + out.error);
      Expect(r, out.result == native_, system + " result differs from native");
      AddCounts(r.counts, out.counts);
    }
    return r;
  }

 private:
  static constexpr std::array<int, 4> kPercents = {13, 25, 50, 75};
  static constexpr int64_t kSweepEdges = 10'000;

  // One fresh IterativeOptimizer run (all techniques, 3 iterations) with
  // `jobs` host threads; records its wall time and exact counts into `r`.
  pipeline::CompiledProgram Optimize(uint64_t local, int jobs, TaskResult* r) {
    pipeline::OptimizeOptions opts;
    opts.entry = w_.entry;
    opts.local_bytes = local;
    opts.max_iterations = 3;
    opts.train_seed = kTrainSeed;
    opts.engine = kEngine;
    opts.planner = Techniques(/*offload=*/true);
    opts.jobs = jobs;
    pipeline::IterativeOptimizer optimizer(w_.module.get(), opts);
    const int64_t t0 = NowNs();
    const uint64_t sims0 = interp::SimulationsRun();
    pipeline::CompiledProgram program = [&] {
      SpanScope span("pipeline.optimize");
      return optimizer.Optimize();
    }();
    r->host["pipeline.optimize_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    r->counts["pipeline.optimize_sims"] = interp::SimulationsRun() - sims0;
    r->counts["pipeline.iterations"] = optimizer.log().size();
    r->counts["pipeline.rollbacks"] = static_cast<uint64_t>(
        std::count_if(optimizer.log().begin(), optimizer.log().end(),
                      [](const pipeline::IterationLog& l) { return l.rolled_back; }));
    return program;
  }

  int pool_jobs_;
  uint64_t seed_ = 0;
  workloads::Workload w_;
  uint64_t native_ = 0;
};

// ---- faults_graph ----

class FaultsGraph final : public Workload {
 public:
  const char* name() const override { return "faults_graph"; }

  void Setup(uint64_t seed) override {
    seed_ = seed;
    {
      SpanScope span("workloads.build");
      w_ = BuildReducedGraph(30'000);
    }
    local_ = LocalBytes(w_, 25);
    native_ = NativeResult(w_, seed);
    compiled_ = DeepDiveCompile(w_, local_, Techniques(/*offload=*/false));
    // Fault-free run at the measured seed: its length places the outage
    // and crash windows inside this workload's network-active phase (the
    // graph streams edges and updates nodes from start to end).
    uint64_t clean_ns = 0;
    {
      SpanScope span("faults.clean_run");
      SimSpec spec;
      spec.module = &compiled_->module;
      spec.local_bytes = local_;
      spec.plan = compiled_->plan;
      spec.seed = seed;
      spec.publish = false;
      const SimOutput out = Simulate(spec);
      MIRA_CHECK_MSG(out.ok && out.result == native_, "fault-free run must match native");
      clean_ns = out.sim_ns;
    }
    std::fprintf(stderr, "[perfbench] faults_graph fault-free run: %.6f ms simulated\n",
                 static_cast<double>(clean_ns) / 1e6);
    plans_.clear();
    plans_.push_back(net::FaultPlan::Lossy(seed));
    plans_.push_back(net::FaultPlan::SilentCorruption(seed));
    plans_.push_back(net::FaultPlan::TornWriteback(seed));
    // Node 1 (primary for a third of the chunks) dies 30% into the run and
    // never returns.
    plans_.push_back(net::FaultPlan::NodeCrash(seed, /*node=*/1, /*crash_ns=*/clean_ns * 3 / 10));
    // Three far-node outages, each 2% of the run, starting 20% in and
    // spaced a quarter of the run apart.
    plans_.push_back(net::FaultPlan::BurstyOutage(seed, /*first_start_ns=*/clean_ns / 5,
                                                  /*width_ns=*/clean_ns / 50,
                                                  /*period_ns=*/clean_ns / 4, /*count=*/3));
  }

  size_t tasks_per_round() const override { return kLabels.size(); }
  std::string TaskLabel(size_t index) const override { return kLabels[index]; }

  TaskResult RunTask(size_t index) override {
    TaskResult r;
    farmem::ClusterConfig cluster;
    cluster.num_nodes = 3;
    cluster.replicas = 1;  // every chunk on two nodes: one crash is survivable
    SimSpec spec;
    spec.module = &compiled_->module;
    spec.local_bytes = local_;
    spec.plan = compiled_->plan;
    spec.seed = seed_;
    spec.faults = &plans_[index];
    spec.integrity = index == kSilent || index == kTorn;
    spec.cluster = index == kCrash ? &cluster : nullptr;
    const SimOutput out = Simulate(spec);
    SpanScope span("bench.check");
    const std::string label = kLabels[index];
    Expect(r, out.ok, label + ": faulted run aborted: " + out.error);
    Expect(r, out.result == native_, label + ": result differs from native");
    const Counts& c = out.counts;
    const auto get = [&c](const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? uint64_t{0} : it->second;
    };
    // The scenario's own fault must actually fire.
    switch (index) {
      case kLossy:
        Expect(r, get("net.fault.failed_attempts") > 0, label + ": no lost attempts");
        break;
      case kSilent:
        Expect(r, get("net.fault.silent") > 0, label + ": no silent faults");
        break;
      case kTorn:
        Expect(r, get("net.fault.torn") > 0, label + ": no torn drains");
        break;
      case kCrash:
        Expect(r, get("farmem.cluster.crashes") > 0, label + ": no node crashed");
        Expect(r, get("net.fault.node_failures") > 0, label + ": no verb saw the dead node");
        Expect(r, get("farmem.cluster.failovers") > 0, label + ": no failover");
        Expect(r, get("farmem.cluster.quarantined_chunks") == 0, label + ": chunks quarantined");
        Expect(r, get("farmem.cluster.lost") == 0, label + ": access served by a dead node");
        break;
      case kOutage:
        Expect(r, get("net.fault.unavailable") > 0, label + ": no verb hit an outage");
        break;
      default:
        break;
    }
    if (spec.integrity) {
      Expect(r, get("integrity.detected") > 0, label + ": integrity detected nothing");
      Expect(r, get("integrity.healed") == get("integrity.detected"),
             label + ": not every detected episode healed");
      Expect(r, get("integrity.quarantined") == 0, label + ": granules quarantined");
    }
    r.counts = c;
    return r;
  }

 private:
  enum : size_t { kLossy, kSilent, kTorn, kCrash, kOutage };
  static constexpr std::array<const char*, 5> kLabels = {
      "lossy", "silent_corruption", "torn_writeback", "node_crash", "bursty_outage"};

  uint64_t seed_ = 0;
  workloads::Workload w_;
  uint64_t local_ = 0;
  uint64_t native_ = 0;
  std::unique_ptr<Compiled> compiled_;
  std::vector<net::FaultPlan> plans_;
};

}  // namespace

void AddCounts(Counts& into, const Counts& from) {
  for (const auto& [key, value] : from) {
    into[key] += value;
  }
}

SimOutput Simulate(const SimSpec& spec) {
  SimOutput out;
  Tracer* tracer = ActiveTracer();
  auto world = std::make_unique<pipeline::World>();
  {
    SpanScope span("world.make");
    *world = pipeline::MakeWorld(spec.kind, spec.local_bytes, spec.plan);
    if (spec.faults != nullptr) {
      pipeline::AttachFaults(*world, *spec.faults);
    }
    if (spec.cluster != nullptr) {
      pipeline::AttachCluster(*world, *spec.cluster);
    }
    if (spec.integrity) {
      pipeline::AttachIntegrity(*world, BenchIntegrityConfig());
    }
  }
  backends::Backend* backend = world->backend.get();
  std::unique_ptr<TracingBackend> traced;
  if (tracer != nullptr) {
    traced = std::make_unique<TracingBackend>(backend, tracer);
    backend = traced.get();
  }
  {
    interp::InterpOptions opts;
    opts.seed = spec.seed;
    opts.profiling = spec.profiling;
    opts.engine = kEngine;
    interp::Interpreter in(spec.module, backend, opts);
    std::optional<support::Result<uint64_t>> result;
    {
      SpanScope span("interp.run");
      const uint64_t backend_ns0 = tracer != nullptr ? tracer->backend_ns() : 0;
      result.emplace(in.Run("main"));
      if (tracer != nullptr) {
        tracer->span(span.id()).untraced_child_ns =
            static_cast<int64_t>(tracer->backend_ns() - backend_ns0);
      }
    }
    if (result->ok()) {
      {
        SpanScope span("backend.drain");
        backend->Drain(in.clock());
      }
      out.ok = true;
      out.result = result->value();
      out.sim_ns = in.clock().now_ns();
      {
        SpanScope span("bench.collect");
        out.counts = CollectCounts(*world, spec.kind, in, out.sim_ns);
        if (spec.profiling) {
          out.profile = in.profile();
        }
      }
      if (spec.publish) {
        SpanScope span("telemetry.publish");
        backend->PublishMetrics(telemetry::Metrics());
        interp::PublishRunProfile(telemetry::Metrics(), in.profile());
      }
    } else {
      out.code = result->status().code();
      out.error = result->status().ToString();
    }
  }
  SpanScope span("world.destroy");
  traced.reset();
  world.reset();
  return out;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, int pool_jobs) {
  if (name == "replay_gpt2") {
    return std::make_unique<ReplayGpt2>();
  }
  if (name == "sweep_graph") {
    return std::make_unique<SweepGraph>(pool_jobs);
  }
  if (name == "faults_graph") {
    return std::make_unique<FaultsGraph>();
  }
  return nullptr;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"replay_gpt2", "sweep_graph", "faults_graph"};
  return kNames;
}

}  // namespace mira::perfbench
