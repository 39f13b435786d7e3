// Host-time tracing for the traced benchmark run.
//
// Two instruments, both owned by the benchmark and both off in the untraced
// run that produces the end-to-end numbers:
//
//  - Spans: RAII scopes on std::chrono::steady_clock around each call the
//    benchmark makes into a layer (workload build, profiling run, analysis,
//    planning, passes, bytecode compile, optimizer, world construction,
//    interpreter run, drain, telemetry publish). Spans nest; each records
//    its name, start, end, parent and task id, is kept in memory, and the
//    whole set is written as JSON when the run ends.
//  - TracingBackend: a forwarding decorator around a world's Backend that
//    counts and times every call the interpreter makes into the runtime
//    (section + transport + integrity + far memory, seen from outside).
//    Splitting that time further needs spans inside the library.
//
// Tracing never touches simulated clocks: the decorator forwards every
// virtual unchanged, so a traced run simulates exactly the same program
// (checked by the benchmark's self-test on every traced run).

#ifndef MIRA_PERFBENCH_TRACING_H_
#define MIRA_PERFBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/backends/backend.h"

namespace mira::perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

// Backend entry points the decorator times, in report order.
enum class Verb : uint8_t {
  kLoad,
  kStore,
  kLoadBatch,
  kPrefetch,
  kEvictHint,
  kLifetimeEnd,
  kPin,
  kUnpin,
  kAlloc,
  kFree,
  kOffloadAdmission,
  kOffloadCall,
  kDrain,
  kPublish,
};
inline constexpr size_t kNumVerbs = 14;
const char* VerbName(Verb v);

struct VerbCost {
  uint64_t calls = 0;
  uint64_t ns = 0;
};
using VerbTable = std::array<VerbCost, kNumVerbs>;

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
    int32_t task = -1;    // timed task id, -1 outside the timed loop
    // Host time of child work recorded without spans of its own (the
    // decorator's backend calls inside an interpreter run).
    int64_t untraced_child_ns = 0;
  };

  int Begin(const char* name);
  void End(int id);

  // Task id stamped on spans begun from now on (-1 = not in a task).
  void set_task(int task) { task_ = task; }

  // Per-backend-kind verb table ("mira", "fastswap", ...).
  VerbTable& verbs(const std::string& backend) { return verbs_[backend]; }
  const std::map<std::string, VerbTable>& all_verbs() const { return verbs_; }
  // Zeroes the verb tables (between phases; never during a run, when a
  // TracingBackend holds a pointer into them).
  void ResetVerbs() { verbs_.clear(); }

  // Running total of host ns spent inside decorated backend calls.
  uint64_t backend_ns() const { return backend_ns_; }
  void AddBackendNs(uint64_t ns) { backend_ns_ += ns; }

  const std::vector<Span>& spans() const { return spans_; }
  Span& span(int id) { return spans_[static_cast<size_t>(id)]; }

  // Self time of every span: duration minus the union of its children's
  // intervals (children never overlap; the tracer is single-threaded)
  // minus untraced_child_ns. Indexed like spans().
  std::vector<int64_t> SelfNs() const;

  // Writes {"spans": [...], "self_ms": {...}} to `path`. Returns false on
  // an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int task_ = -1;
  std::map<std::string, VerbTable> verbs_;
  uint64_t backend_ns_ = 0;
};

// The active tracer, or null in an untraced run.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

// Opens a span on the active tracer for the enclosing scope; does nothing
// when tracing is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : tracer_(ActiveTracer()), id_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->End(id_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// Forwarding decorator: every virtual of backends::Backend goes to `inner`
// unchanged, timed into `tracer`'s table for inner->name(). Missing a
// forward would silently change the program (e.g. SupportsOffload defaults
// to false), so every virtual is overridden here.
class TracingBackend final : public backends::Backend {
 public:
  TracingBackend(backends::Backend* inner, Tracer* tracer);

  std::string_view name() const override { return inner_->name(); }

  support::Result<farmem::RemoteAddr> Alloc(sim::SimClock& clk, uint64_t bytes,
                                            std::string_view label,
                                            uint32_t elem_bytes) override;
  void Free(sim::SimClock& clk, farmem::RemoteAddr addr) override;
  void Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
            const backends::AccessHints& hints) override;
  void Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
             const backends::AccessHints& hints) override;
  void Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
            const backends::AccessHints& hints, cache::AccessSite* site) override;
  void Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
             const backends::AccessHints& hints, cache::AccessSite* site) override;
  void LoadBatch(sim::SimClock& clk,
                 const std::vector<std::pair<farmem::RemoteAddr, uint32_t>>& accesses) override;
  void Prefetch(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override;
  void EvictHint(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override;
  void LifetimeEnd(sim::SimClock& clk, farmem::RemoteAddr addr) override;
  void Pin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override;
  void Unpin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) override;
  bool SupportsOffload() const override { return inner_->SupportsOffload(); }
  bool OffloadAdmission(sim::SimClock& clk) override;
  void OffloadCall(sim::SimClock& clk, uint32_t req_bytes, uint32_t resp_bytes,
                   uint64_t remote_service_ns) override;
  uint64_t DegradedNs() const override { return inner_->DegradedNs(); }
  void Drain(sim::SimClock& clk) override;
  void PublishMetrics(telemetry::MetricsRegistry& registry) const override;

 private:
  // Times one forwarded call into the verb table.
  class Timed {
   public:
    Timed(const TracingBackend* owner, Verb verb) : owner_(owner), verb_(verb), t0_(NowNs()) {}
    ~Timed();
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    const TracingBackend* owner_;
    Verb verb_;
    int64_t t0_;
  };

  backends::Backend* inner_;
  Tracer* tracer_;
  VerbTable* table_;
};

}  // namespace mira::perfbench

#endif  // MIRA_PERFBENCH_TRACING_H_
