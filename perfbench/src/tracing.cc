#include "tracing.h"

#include <cstdio>
#include <fstream>

namespace mira::perfbench {

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* ActiveTracer() { return g_tracer; }
void SetActiveTracer(Tracer* tracer) { g_tracer = tracer; }

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kLoad:
      return "load";
    case Verb::kStore:
      return "store";
    case Verb::kLoadBatch:
      return "load_batch";
    case Verb::kPrefetch:
      return "prefetch";
    case Verb::kEvictHint:
      return "evict_hint";
    case Verb::kLifetimeEnd:
      return "lifetime_end";
    case Verb::kPin:
      return "pin";
    case Verb::kUnpin:
      return "unpin";
    case Verb::kAlloc:
      return "alloc";
    case Verb::kFree:
      return "free";
    case Verb::kOffloadAdmission:
      return "offload_admission";
    case Verb::kOffloadCall:
      return "offload_call";
    case Verb::kDrain:
      return "drain";
    case Verb::kPublish:
      return "publish";
  }
  return "?";
}

int Tracer::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.task = task_;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns - spans_[i].untraced_child_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<int64_t> self = SelfNs();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << s.start_ns - origin << ", \"end_ns\": " << s.end_ns - origin
        << ", \"parent\": " << s.parent << ", \"task\": " << s.task
        << ", \"self_ns\": " << self[i] << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_ms\": {";
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  bool first = true;
  for (const auto& [name, ns] : by_name) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": " << static_cast<double>(ns) / 1e6;
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

// ---- TracingBackend ----

TracingBackend::TracingBackend(backends::Backend* inner, Tracer* tracer)
    : Backend(inner->node(), inner->net(), inner->local_bytes()),
      inner_(inner),
      tracer_(tracer),
      table_(&tracer->verbs(std::string(inner->name()))) {}

TracingBackend::Timed::~Timed() {
  const int64_t ns = NowNs() - t0_;
  VerbCost& cost = (*owner_->table_)[static_cast<size_t>(verb_)];
  ++cost.calls;
  cost.ns += static_cast<uint64_t>(ns);
  owner_->tracer_->AddBackendNs(static_cast<uint64_t>(ns));
}

support::Result<farmem::RemoteAddr> TracingBackend::Alloc(sim::SimClock& clk, uint64_t bytes,
                                                          std::string_view label,
                                                          uint32_t elem_bytes) {
  Timed t(this, Verb::kAlloc);
  return inner_->Alloc(clk, bytes, label, elem_bytes);
}

void TracingBackend::Free(sim::SimClock& clk, farmem::RemoteAddr addr) {
  Timed t(this, Verb::kFree);
  inner_->Free(clk, addr);
}

void TracingBackend::Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
                          const backends::AccessHints& hints) {
  Timed t(this, Verb::kLoad);
  inner_->Load(clk, addr, len, hints);
}

void TracingBackend::Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
                           const backends::AccessHints& hints) {
  Timed t(this, Verb::kStore);
  inner_->Store(clk, addr, len, hints);
}

void TracingBackend::Load(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
                          const backends::AccessHints& hints, cache::AccessSite* site) {
  Timed t(this, Verb::kLoad);
  inner_->Load(clk, addr, len, hints, site);
}

void TracingBackend::Store(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len,
                           const backends::AccessHints& hints, cache::AccessSite* site) {
  Timed t(this, Verb::kStore);
  inner_->Store(clk, addr, len, hints, site);
}

void TracingBackend::LoadBatch(
    sim::SimClock& clk, const std::vector<std::pair<farmem::RemoteAddr, uint32_t>>& accesses) {
  Timed t(this, Verb::kLoadBatch);
  inner_->LoadBatch(clk, accesses);
}

void TracingBackend::Prefetch(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) {
  Timed t(this, Verb::kPrefetch);
  inner_->Prefetch(clk, addr, len);
}

void TracingBackend::EvictHint(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) {
  Timed t(this, Verb::kEvictHint);
  inner_->EvictHint(clk, addr, len);
}

void TracingBackend::LifetimeEnd(sim::SimClock& clk, farmem::RemoteAddr addr) {
  Timed t(this, Verb::kLifetimeEnd);
  inner_->LifetimeEnd(clk, addr);
}

void TracingBackend::Pin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) {
  Timed t(this, Verb::kPin);
  inner_->Pin(clk, addr, len);
}

void TracingBackend::Unpin(sim::SimClock& clk, farmem::RemoteAddr addr, uint32_t len) {
  Timed t(this, Verb::kUnpin);
  inner_->Unpin(clk, addr, len);
}

bool TracingBackend::OffloadAdmission(sim::SimClock& clk) {
  Timed t(this, Verb::kOffloadAdmission);
  return inner_->OffloadAdmission(clk);
}

void TracingBackend::OffloadCall(sim::SimClock& clk, uint32_t req_bytes, uint32_t resp_bytes,
                                 uint64_t remote_service_ns) {
  Timed t(this, Verb::kOffloadCall);
  inner_->OffloadCall(clk, req_bytes, resp_bytes, remote_service_ns);
}

void TracingBackend::Drain(sim::SimClock& clk) {
  Timed t(this, Verb::kDrain);
  inner_->Drain(clk);
}

void TracingBackend::PublishMetrics(telemetry::MetricsRegistry& registry) const {
  Timed t(this, Verb::kPublish);
  inner_->PublishMetrics(registry);
}

}  // namespace mira::perfbench
