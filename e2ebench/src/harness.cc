#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>

#include "recovery/wal.h"

// ---------------------------------------------------------------------------
// Counting allocator: every global operator new bumps a per-thread tally,
// so a span can count the allocations its call made on the calling
// thread. Untraced runs pay the same increment, keeping both runs on one
// code path.
// ---------------------------------------------------------------------------

namespace {
thread_local uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace e2e {

uint64_t ThreadAllocs() { return t_allocs; }

int64_t ResidentKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE) / 1024;
}

std::vector<Timestamp> PrefixMaxEventTime(const std::vector<Input>& inputs) {
  std::vector<Timestamp> out;
  out.reserve(inputs.size());
  Timestamp max_ts = eslev::kMinTimestamp;
  for (const Input& in : inputs) {
    max_ts = std::max(max_ts, in.ts);
    out.push_back(max_ts);
  }
  return out;
}

void LatencyClock::Record(Timestamp emission_ts) {
  const int64_t now = NowNs();
  auto it = std::lower_bound(prefix_max_->begin(), prefix_max_->end(),
                             emission_ts);
  // Every trace ends in a flush tick past every emission; clamp anyway.
  size_t index = static_cast<size_t>(it - prefix_max_->begin());
  if (index == prefix_max_->size()) index = prefix_max_->size() - 1;
  samples_->push_back(now - pacer_->due(index));
}

void Outcome::Op(const Status& s, const char* what) {
  ++attempted;
  if (!s.ok()) {
    ++failed;
    if (op_errors.size() < 5) {
      op_errors.push_back(std::string(what) + ": " + s.ToString());
    }
  }
}

void Outcome::FailedOps(uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed += n;
  if (op_errors.size() < 5) {
    op_errors.push_back(what + ": " + std::to_string(n));
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int64_t Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank >= v->size()) rank = v->size() - 1;
  return (*v)[rank];
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& GlobalTracer() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint32_t Tracer::Intern(const char* name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  // Equal literals may have distinct addresses across translation units.
  uint32_t id = 0;
  while (id < names_.size() && names_[id] != name) ++id;
  if (id == names_.size()) {
    names_.emplace_back(name);
    totals_.emplace_back();
  }
  ids_.emplace(name, id);
  return id;
}

void Tracer::Open(const char* name, uint64_t input) {
  const uint32_t id = Intern(name);
  uint32_t span = 0;
  if (spans_.size() < kMaxRetainedSpans) {
    const uint32_t parent = stack_.empty() ? 0 : stack_.back().span;
    spans_.push_back({id, parent, input, 0, 0});
    span = static_cast<uint32_t>(spans_.size());
  }
  const int64_t now = NowNs();
  if (span != 0) spans_[span - 1].start_ns = now;
  stack_.push_back({id, span, now, 0, ThreadAllocs()});
}

void Tracer::Close() {
  const int64_t now = NowNs();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t duration = now - frame.start_ns;
  Totals& t = totals_[frame.name];
  ++t.calls;
  t.self_ns += duration - frame.child_ns;
  t.allocs += ThreadAllocs() - frame.alloc_start;
  if (frame.span != 0) spans_[frame.span - 1].end_ns = now;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

Tracer::Totals Tracer::Get(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

double Tracer::SelfPerCall(const std::string& name, double unit_ns) const {
  const Totals t = Get(name);
  if (t.calls == 0) return 0;
  return static_cast<double>(t.self_ns) / static_cast<double>(t.calls) /
         unit_ns;
}

std::string Tracer::SelfTimeTable() const {
  std::vector<size_t> order(names_.size());
  int64_t all = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    all += totals_[i].self_ns;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return totals_[a].self_ns > totals_[b].self_ns;
  });
  std::string out;
  char line[256];
  for (size_t i : order) {
    const Totals& t = totals_[i];
    std::snprintf(line, sizeof(line), "  %-28s %10llu calls %10.2f ms self %6.2f%%\n",
                  names_[i].c_str(), static_cast<unsigned long long>(t.calls),
                  static_cast<double>(t.self_ns) / 1e6,
                  all > 0 ? 100.0 * static_cast<double>(t.self_ns) /
                                static_cast<double>(all)
                          : 0.0);
    out += line;
  }
  return out;
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id\tname\tparent\tinput\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%u\t%llu\t%lld\t%lld\n", i + 1,
                 names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.input),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot close " + path);
}

// ---------------------------------------------------------------------------
// Workload helpers
// ---------------------------------------------------------------------------

uint64_t TupleDigest(const Tuple& t) {
  uint64_t h = std::hash<int64_t>()(t.ts()) * 0x9e3779b97f4a7c15ULL;
  for (const eslev::Value& v : t.values()) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void AddTicks(std::vector<Input>* inputs, eslev::Duration period,
              eslev::Duration flush_after) {
  std::vector<Input> out;
  out.reserve(inputs->size() + inputs->size() / 2 + 1);
  Timestamp next_tick = period;
  Timestamp last = 0;
  for (Input& in : *inputs) {
    while (in.ts >= next_tick) {
      Input tick;
      tick.ts = next_tick;
      out.push_back(std::move(tick));
      next_tick += period;
    }
    last = std::max(last, in.ts);
    out.push_back(std::move(in));
  }
  Input flush;
  flush.ts = last + flush_after;
  out.push_back(std::move(flush));
  *inputs = std::move(out);
}

uint64_t CheckpointBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    if (it->path().filename().string().rfind("wal", 0) == 0) continue;
    bytes += it->file_size();
  }
  return bytes;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

void WalAppendReplay(const std::vector<Input>& inputs, const std::string& dir,
                     Outcome* out) {
  ResetDir(dir);
  auto writer = eslev::WalWriter::Open(dir + "/wal.log", 1);
  out->Op(writer.status(), "wal open");
  if (!writer.ok()) return;
  eslev::WalWriter& wal = **writer;
  uint64_t records = 0;
  {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Input& in = inputs[i];
      Span span("recovery.wal_append", i);
      if (in.tick()) {
        out->Op(wal.AppendHeartbeat("", in.ts).status(), "wal append");
      } else {
        out->Op(wal.AppendTuple(*in.stream, in.tuple).status(), "wal append");
      }
      ++records;
    }
  }
  out->Op(wal.Flush(), "wal flush");
  const Tracer& tracer = GlobalTracer();
  const Tracer::Totals t = tracer.Get("recovery.wal_append");
  out->layer["recovery.wal_append_ns"] = tracer.SelfPerCall("recovery.wal_append", 1);
  out->layer["recovery.wal_bytes_per_event"] =
      records > 0 ? static_cast<double>(wal.bytes_written()) /
                        static_cast<double>(records)
                  : 0;
  out->layer["recovery.allocs_per_record"] =
      t.calls > 0 ? static_cast<double>(t.allocs) / static_cast<double>(t.calls)
                  : 0;
}

double SumMetric(const eslev::MetricsSnapshot& snap,
                 const std::string& suffix) {
  auto ends_with = [&](const std::string& key) {
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  double sum = 0;
  for (const auto& [key, value] : snap.gauges) {
    if (ends_with(key)) sum += static_cast<double>(value);
  }
  for (const auto& [key, value] : snap.counters) {
    if (ends_with(key)) sum += static_cast<double>(value);
  }
  return sum;
}

}  // namespace e2e
