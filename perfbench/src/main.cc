// mira_perfbench: host-time benchmark of the Mira simulator.
//
//   mira_perfbench --workload <replay_gpt2|sweep_graph|faults_graph>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>]
//
// One process, one closed-loop client. The run sets the workload up
// kSetups times (each: inputs from --seed, native reference run, compile,
// one untimed warm-up round) and reports the median as setup_s, then runs
// whole rounds of tasks until --seconds have passed, all on one host
// thread; a traced run also times one optimizer run fanned out over
// min(nproc, 4) threads.
//
// --trace 0 prints the end-to-end metrics (host throughput, task latency,
// setup time, peak RSS). --trace 1 splits --seconds into an untraced half
// and a traced half (spans + TracingBackend), checks that both simulate the
// identical program, and prints the per-layer metrics plus the tracing
// overhead; --spans-out receives every span as JSON.
//
// Every task's outputs are checked (result equals the native run's; exact
// simulated counts equal the first round's, task by task). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Simulated time is reported only in the preceding "model" line: it is the
// model's output, unvalidated against hardware, and never a speed metric.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/interp/bytecode.h"
#include "src/interp/interpreter.h"
#include "src/support/thread_pool.h"
#include "tracing.h"
#include "workloads.h"

namespace mira::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "mira_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: mira_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--spans-out <file>]\nworkloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) {
    Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return args;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Get(const Counts& c, const std::string& key) {
  const auto it = c.find(key);
  return it == c.end() ? 0 : it->second;
}

// First key whose value differs between two fingerprints, for the report.
std::string FirstDiff(const Counts& want, const Counts& got) {
  Counts keys = want;
  AddCounts(keys, got);
  for (const auto& [key, unused] : keys) {
    if (Get(want, key) != Get(got, key) || want.count(key) != got.count(key)) {
      return key + " " + std::to_string(Get(want, key)) + " -> " + std::to_string(Get(got, key));
    }
  }
  return "";
}

// One timed phase: whole rounds of tasks until `seconds` have passed.
struct Phase {
  double wall_s = 0;
  uint64_t sims = 0;
  uint64_t instrs = 0;
  size_t tasks = 0;
  size_t failed = 0;
  size_t rounds = 0;
  int first_task_id = 0;
  std::vector<std::vector<double>> task_ms_by_kind;  // indexed by task of the round
  Counts counts;
  std::map<std::string, std::vector<double>> host;
};

// Runs task `index` as task number `id`, checking its fingerprint against
// `reference` (empty = this task defines the reference). Returns false on a
// failed check, after reporting it on stderr.
bool RunCheckedTask(Workload& w, size_t index, int id, Counts* reference, TaskResult* out,
                    double* ms) {
  Tracer* tracer = ActiveTracer();
  if (tracer != nullptr) {
    tracer->set_task(id);
  }
  const int64_t t0 = NowNs();
  {
    SpanScope span("task");
    *out = w.RunTask(index);
  }
  *ms = static_cast<double>(NowNs() - t0) / 1e6;
  if (tracer != nullptr) {
    tracer->set_task(-1);
  }
  if (out->ok) {
    if (reference->empty()) {
      *reference = out->counts;
    } else if (out->counts != *reference) {
      out->ok = false;
      out->error = "simulated counts differ from the first round: " +
                   FirstDiff(*reference, out->counts);
    }
  }
  if (!out->ok) {
    std::fprintf(stderr, "[perfbench] task %d (%s) FAILED: %s\n", id, w.TaskLabel(index).c_str(),
                 out->error.c_str());
  }
  return out->ok;
}

Phase RunPhase(Workload& w, double seconds, std::vector<Counts>& reference, int* next_id) {
  Phase p;
  p.first_task_id = *next_id;
  p.task_ms_by_kind.resize(w.tasks_per_round());
  const uint64_t sims0 = interp::SimulationsRun();
  const int64_t start = NowNs();
  do {
    for (size_t i = 0; i < w.tasks_per_round(); ++i) {
      TaskResult r;
      double ms = 0;
      if (!RunCheckedTask(w, i, (*next_id)++, &reference[i], &r, &ms)) {
        ++p.failed;
      }
      ++p.tasks;
      p.task_ms_by_kind[i].push_back(ms);
      p.instrs += Get(r.counts, "interp.instrs");
      AddCounts(p.counts, r.counts);
      for (const auto& [key, value] : r.host) {
        p.host[key].push_back(value);
      }
    }
    ++p.rounds;
  } while (static_cast<double>(NowNs() - start) < seconds * 1e9);
  p.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  p.sims = interp::SimulationsRun() - sims0;
  return p;
}

// Quantile `q` of each kind of task, averaged over the kinds of a round.
double TaskMs(const Phase& p, double q) {
  double sum = 0;
  for (const std::vector<double>& samples : p.task_ms_by_kind) {
    sum += Percentile(samples, q);
  }
  return sum / static_cast<double>(p.task_ms_by_kind.size());
}

// Every round repeats identical simulated work, so host-time differences
// between repetitions of a task are the host's. On a shared machine that
// noise is one-sided and large: other tenants slowed this simulator by up
// to 2x for 10 to 30 s at a time, with no fast repetition in between,
// which moves a median, or even a round's fast decile, by 20 to 30% between
// runs. The bounded metrics therefore use each kind of task's fastest
// repetition in the run (as timeit does): the program's speed when the host
// lets it run. Medians and tails are still reported by the traced run.
double TaskMsMin(const Phase& p) { return TaskMs(p, 0.0); }

// Host ms of a round made of each kind of task's fastest repetition.
double BestRoundMs(const Phase& p) {
  return TaskMsMin(p) * static_cast<double>(p.task_ms_by_kind.size());
}

double SimsPerSec(const Phase& p) {
  return static_cast<double>(p.sims) / static_cast<double>(p.rounds) / (BestRoundMs(p) / 1e3);
}

double MinstrPerSec(const Phase& p) {
  return static_cast<double>(p.instrs) / static_cast<double>(p.rounds) / BestRoundMs(p) / 1e3;
}

// Metric output: name -> (value, unit), printed in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::ostringstream out;
    out.precision(12);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": " << entries_[i].value
          << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

  void PrintTable(FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-40s %16.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// Exact simulated totals of one round: the model fingerprint a host-time
// change must leave identical.
MetricSet ModelFingerprint(const std::vector<Counts>& reference) {
  Counts round;
  for (const Counts& c : reference) {
    AddCounts(round, c);
  }
  MetricSet m;
  for (const char* system : {"mira", "fastswap", "leap", "aifm"}) {
    m.Add(std::string("model.sim_ms.") + system,
          static_cast<double>(Get(round, std::string("model.sim_ns.") + system)) / 1e6, "ms");
  }
  m.Add("model.net_messages", static_cast<double>(Get(round, "net.messages")), "count");
  m.Add("model.cache_misses", static_cast<double>(Get(round, "cache.misses")), "count");
  m.Add("model.integrity_detected", static_cast<double>(Get(round, "integrity.detected")),
        "count");
  m.Add("model.pipeline_iterations", static_cast<double>(Get(round, "pipeline.iterations")),
        "count");
  m.Add("model.aifm_dnf", static_cast<double>(Get(round, "model.aifm_dnf")), "count");
  return m;
}

double ClockCostNs() {
  constexpr int kCalls = 100'000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kCalls; ++i) {
    NowNs();
  }
  return static_cast<double>(NowNs() - t0) / kCalls;
}

// Per-layer metrics of the traced phase `b` (tasks >= b.first_task_id),
// with the untraced phase `a` for the overhead and `setup_ranges` for the
// setup layers.
MetricSet LayerMetrics(const Tracer& tracer, const Phase& a, const Phase& b,
                       const std::vector<std::pair<size_t, size_t>>& setup_ranges,
                       const std::map<std::string, double>& pool, bool identical) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::vector<int64_t> self = tracer.SelfNs();
  std::map<std::string, double> dur_ns;
  std::map<std::string, double> self_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].task < b.first_task_id) {
      continue;
    }
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    dur_ns[spans[i].name] += d;
    self_ns[spans[i].name] += static_cast<double>(self[i]);
  }
  const double tasks = static_cast<double>(b.tasks);
  const double rounds = static_cast<double>(b.rounds);
  const auto per_task_ms = [&](const char* name) { return dur_ns[name] / tasks / 1e6; };
  const auto per_round = [&](const std::string& key) {
    return static_cast<double>(Get(b.counts, key)) / rounds;
  };
  MetricSet m;

  // Setup layers: median over setups of each layer's total in that setup.
  for (const char* layer :
       {"workloads.build", "pipeline.native_run", "pipeline.profile_run", "analysis.run",
        "pipeline.derive_plan", "passes.compile", "interp.bytecode_compile", "setup.warmup"}) {
    std::vector<double> per_setup;
    for (const auto& [lo, hi] : setup_ranges) {
      double ns = 0;
      for (size_t i = lo; i < hi; ++i) {
        if (std::strcmp(spans[i].name, layer) == 0) {
          ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        }
      }
      per_setup.push_back(ns / 1e6);
    }
    m.Add(std::string(layer) + "_ms", Percentile(per_setup, 0.5), "ms");
  }

  // Optimizer + solver (serial, per Optimize) and the thread pool's
  // fan-out (one Optimize at 13% with min(nproc, 4) jobs) — sweep_graph.
  const auto optimize_ms = b.host.find("pipeline.optimize_ms");
  m.Add("pipeline.optimize_ms", optimize_ms == b.host.end() ? 0.0 : Mean(optimize_ms->second),
        "ms");
  m.Add("pipeline.optimize_sims", per_round("pipeline.optimize_sims"), "count");
  m.Add("pipeline.iterations", per_round("pipeline.iterations"), "count");
  m.Add("pipeline.rollbacks", per_round("pipeline.rollbacks"), "count");
  for (const auto& [name, unit] : {std::pair{"pool.jobs", "count"},
                                   std::pair{"pool.optimize_ms", "ms"},
                                   std::pair{"pool.cpu_util", "ratio"}}) {
    const auto it = pool.find(name);
    m.Add(name, it == pool.end() ? 0.0 : it->second, unit);
  }

  // Interpreter VM: run span minus the decorated backend calls inside it.
  const double instrs = static_cast<double>(b.instrs);
  m.Add("interp.run_ms", per_task_ms("interp.run"), "ms");
  m.Add("interp.self_ms", self_ns["interp.run"] / tasks / 1e6, "ms");
  m.Add("interp.instrs", per_round("interp.instrs"), "count");
  m.Add("interp.self_ns_per_instr", instrs > 0 ? self_ns["interp.run"] / instrs : 0, "ns");

  // Backend calls as seen by the decorator, per round.
  const auto verb = [&](const std::string& backend, Verb v) {
    const auto it = tracer.all_verbs().find(backend);
    return it == tracer.all_verbs().end() ? VerbCost{} : it->second[static_cast<size_t>(v)];
  };
  const auto add_verb = [&](const std::string& backend, Verb v) {
    const VerbCost cost = verb(backend, v);
    const std::string prefix = "backend." + backend + "." + VerbName(v);
    m.Add(prefix + ".calls", static_cast<double>(cost.calls) / rounds, "count");
    m.Add(prefix + ".ns_per_call",
          cost.calls > 0 ? static_cast<double>(cost.ns) / static_cast<double>(cost.calls) : 0,
          "ns");
  };
  for (const Verb v : {Verb::kLoad, Verb::kStore, Verb::kLoadBatch, Verb::kPrefetch,
                       Verb::kEvictHint, Verb::kLifetimeEnd}) {
    add_verb("mira", v);
  }
  for (const char* backend : {"fastswap", "leap", "aifm"}) {
    add_verb(backend, Verb::kLoad);
  }

  // Mira cache sections (incl. the swap fallback), per round.
  const double issued = per_round("cache.prefetch_issued");
  const double useful = per_round("cache.prefetch_useful");
  m.Add("cache.hits", per_round("cache.hits"), "count");
  m.Add("cache.misses", per_round("cache.misses"), "count");
  m.Add("cache.prefetch_issued", issued, "count");
  m.Add("cache.prefetch_useful", useful, "count");
  m.Add("cache.prefetch_accuracy", issued > 0 ? useful / issued : 0, "ratio");
  m.Add("cache.inflight.joins", per_round("cache.inflight.joins"), "count");
  m.Add("cache.coalesced.lines", per_round("cache.coalesced.lines"), "count");
  m.Add("cache.writebacks", per_round("cache.writebacks"), "count");
  m.Add("swap.major_faults", per_round("swap.major_faults"), "count");

  // Transport + in-flight table.
  const double registered = per_round("net.inflight.registered");
  const double joined = per_round("net.inflight.joined");
  m.Add("net.messages", per_round("net.messages"), "count");
  m.Add("net.bytes", per_round("net.bytes"), "bytes");
  m.Add("net.inflight.registered", registered, "count");
  m.Add("net.inflight.joined", joined, "count");
  m.Add("net.inflight.join_ratio", joined + registered > 0 ? joined / (joined + registered) : 0,
        "ratio");

  // Fault injector, retry ladder, integrity, cluster.
  const double detected = per_round("integrity.detected");
  const double healed = per_round("integrity.healed");
  m.Add("net.fault.injected", per_round("net.fault.injected"), "count");
  m.Add("net.retry.attempts", per_round("net.retry.attempts"), "count");
  m.Add("net.retry.recovered", per_round("net.retry.recovered"), "count");
  m.Add("net.retry.exhausted", per_round("net.retry.exhausted"), "count");
  m.Add("integrity.fetches_verified", per_round("integrity.fetches_verified"), "count");
  m.Add("integrity.detected", detected, "count");
  m.Add("integrity.healed", healed, "count");
  m.Add("integrity.heal_ratio", detected > 0 ? healed / detected : 0, "ratio");
  m.Add("farmem.cluster.failovers", per_round("farmem.cluster.failovers"), "count");
  m.Add("farmem.cluster.rereplicated_bytes", per_round("farmem.cluster.rereplicated_bytes"),
        "bytes");

  // Per-task host time of the remaining steps.
  m.Add("world.make_ms", per_task_ms("world.make"), "ms");
  m.Add("backend.drain_ms", per_task_ms("backend.drain"), "ms");
  m.Add("telemetry.publish_ms", per_task_ms("telemetry.publish"), "ms");
  m.Add("world.destroy_ms", per_task_ms("world.destroy"), "ms");

  // The model fingerprint (per round), traced side.
  for (const char* system : {"mira", "fastswap", "leap", "aifm"}) {
    m.Add(std::string("model.sim_ms.") + system,
          per_round(std::string("model.sim_ns.") + system) / 1e6, "ms");
  }
  m.Add("model.aifm_dnf", per_round("model.aifm_dnf"), "count");

  // Task latency distribution of the untraced phase, host noise included
  // (unbounded: see TaskMsMin).
  m.Add("host.task_ms_min", TaskMsMin(a), "ms");
  m.Add("host.task_ms_p50", TaskMs(a, 0.5), "ms");
  m.Add("host.task_ms_p90", TaskMs(a, 0.9), "ms");
  m.Add("host.tasks", static_cast<double>(a.tasks), "count");

  // The tracing itself.
  const double untraced = SimsPerSec(a);
  const double traced = SimsPerSec(b);
  m.Add("trace.untraced_sims_per_sec", untraced, "1/s");
  m.Add("trace.traced_sims_per_sec", traced, "1/s");
  m.Add("trace.overhead_sims_per_sec", untraced - traced, "1/s");
  m.Add("trace.overhead_pct", untraced > 0 ? (untraced - traced) / untraced * 100 : 0, "%");
  const double task_ns = dur_ns["task"];
  m.Add("trace.task_coverage", task_ns > 0 ? (task_ns - self_ns["task"]) / task_ns : 0, "ratio");
  m.Add("trace.selftest_identical", identical ? 1 : 0, "bool");
  m.Add("trace.clock_ns", ClockCostNs(), "ns");
  m.Add("trace.tasks", tasks, "count");
  return m;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const char* paranoid = std::getenv("MIRA_PARANOID");
  if (paranoid != nullptr && paranoid[0] != '\0' && std::strcmp(paranoid, "0") != 0) {
    std::fprintf(stderr,
                 "mira_perfbench: MIRA_PARANOID is set; its shadow oracle is a different "
                 "program. Unset it to benchmark.\n");
    return 2;
  }
  // Pin the measured program: the bytecode engine regardless of
  // MIRA_INTERP (every Interpreter also requests it explicitly).
  interp::SetDefaultEngine(interp::EngineKind::kBytecode);
  const unsigned hw = std::thread::hardware_concurrency();
  const int nproc = hw == 0 ? 1 : static_cast<int>(hw);
  // Timed work is single-threaded (see SweepGraph::RunTask); only the
  // traced run's pool probe fans out.
  const int pool_jobs = std::clamp(nproc, 1, 4);
  support::SetDefaultParallelism(1);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, pool_jobs);
  if (workload == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }

  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"setups\": %d, \"nproc\": %d, \"jobs\": 1, \"pool_probe_jobs\": %d, \"engine\": \"%s\", "
      "\"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"client\": \"closed loop, 1 client\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      kSetups, nproc, pool_jobs, interp::EngineName(interp::EngineKind::kBytecode),
      kCompiler, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Tracer tracer;
  if (args.trace == 1) {
    SetActiveTracer(&tracer);
  }

  // Setup rounds. The first warm-up round defines each task's reference
  // fingerprint; later warm-ups and every timed task must reproduce it.
  std::vector<Counts> reference(workload->tasks_per_round());
  std::vector<double> setup_s;
  std::vector<std::pair<size_t, size_t>> setup_ranges;
  bool setup_ok = true;
  int next_id = 0;
  for (int s = 0; s < kSetups; ++s) {
    const size_t first_span = tracer.spans().size();
    const int64_t t0 = NowNs();
    {
      SpanScope span("setup");
      workload->Setup(args.seed);
      SpanScope warmup("setup.warmup");
      for (size_t i = 0; i < workload->tasks_per_round(); ++i) {
        TaskResult r;
        double ms = 0;
        setup_ok &= RunCheckedTask(*workload, i, -1, &reference[i], &r, &ms);
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_ranges.emplace_back(first_span, tracer.spans().size());
  }

  for (size_t i = 0; i < reference.size(); ++i) {
    uint64_t sim_ns = 0;
    for (const auto& [key, value] : reference[i]) {
      sim_ns += key.rfind("model.sim_ns.", 0) == 0 ? value : 0;
    }
    std::fprintf(stderr, "[perfbench] task %-18s %14.6f sim ms %10llu messages\n",
                 workload->TaskLabel(i).c_str(), static_cast<double>(sim_ns) / 1e6,
                 static_cast<unsigned long long>(Get(reference[i], "net.messages")));
  }
  const MetricSet model = ModelFingerprint(reference);
  std::printf("{\"model\": %s, \"note\": \"exact simulated totals of one round; the model is "
              "unvalidated against hardware\"}\n",
              model.Json().c_str());

  MetricSet metrics;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = setup_ok;
  if (args.trace == 0) {
    const Phase p = RunPhase(*workload, args.seconds, reference, &next_id);
    attempted = p.tasks;
    failed = p.failed;
    metrics.Add("sims_per_sec", SimsPerSec(p), "1/s");
    metrics.Add("minstr_per_sec", MinstrPerSec(p), "Minstr/s");
    metrics.Add("task_ms_min", TaskMsMin(p), "ms");
    metrics.Add("setup_s", Percentile(setup_s, 0.5), "s");
    metrics.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    std::fprintf(stderr, "[perfbench] %s seed=%llu: %zu tasks in %zu rounds, %.2f s timed\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed), p.tasks,
                 p.rounds, p.wall_s);
  } else {
    SetActiveTracer(nullptr);
    const Phase a = RunPhase(*workload, args.seconds / 2, reference, &next_id);
    SetActiveTracer(&tracer);
    tracer.ResetVerbs();
    const Phase b = RunPhase(*workload, args.seconds / 2, reference, &next_id);
    SetActiveTracer(nullptr);
    attempted = a.tasks + b.tasks;
    failed = a.failed + b.failed;
    // Self-test: traced and untraced tasks reproduced the same fingerprints
    // (result, sim time, instructions, messages, ...), so the traced numbers
    // describe the same program.
    const bool identical = setup_ok && a.failed == 0 && b.failed == 0;
    metrics = LayerMetrics(tracer, a, b, setup_ranges, workload->PoolProbe(), identical);
    if (!args.spans_out.empty() && !tracer.WriteJson(args.spans_out)) {
      std::fprintf(stderr, "[perfbench] cannot write spans to %s\n", args.spans_out.c_str());
      correct = false;
    }
  }
  correct = correct && failed == 0;

  std::fprintf(stderr, "[perfbench] %s metrics:\n", args.trace ? "per-layer" : "end-to-end");
  metrics.PrintTable(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace mira::perfbench

int main(int argc, char** argv) { return mira::perfbench::Main(argc, argv); }
