#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "exp/store.h"
#include "util/json.h"

namespace perfbench {

using cachesched::json_escape;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- HostClock -------------------------------------------------------------

namespace {

// 4096 sets x 16 ways: 64K lines, 512 KB of tags per thread.
constexpr size_t kCalibSets = 4096;
constexpr size_t kCalibWays = 16;
constexpr uint64_t kCalibRefs = 2'000'000;

/// One thread's share of the fixed work; returns the hit count so the
/// loop cannot be optimized away.
uint64_t calibration_round(uint64_t* tags, uint64_t seed) {
  std::fill(tags, tags + kCalibSets * kCalibWays, ~uint64_t{0});
  uint64_t x = seed, hits = 0;
  for (uint64_t i = 0; i < kCalibRefs; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Three refs in four fall in a hot set of 16K lines, the rest in 1M.
    const uint64_t r = x >> 24;
    const uint64_t line = (x >> 62) ? r % (uint64_t{1} << 14)
                                    : r % (uint64_t{1} << 20);
    uint64_t* set = tags + (line % kCalibSets) * kCalibWays;
    size_t w = 0;
    while (w < kCalibWays && set[w] != line) ++w;
    if (w < kCalibWays) {
      ++hits;
    } else {
      w = kCalibWays - 1;
    }
    for (; w > 0; --w) set[w] = set[w - 1];
    set[0] = line;
  }
  return hits;
}

}  // namespace

HostClock::HostClock(int threads)
    : threads_(threads),
      tags_(threads, std::vector<uint64_t>(kCalibSets * kCalibWays)) {}

double HostClock::measure() {
  std::vector<uint64_t> hits(threads_);
  std::vector<double> cpu(threads_);
  std::vector<std::thread> pool;
  auto round = [&](int t) {
    const double c0 = thread_cpu_s();
    hits[t] = calibration_round(tags_[t].data(), t);
    cpu[t] = thread_cpu_s() - c0;
  };
  for (int t = 1; t < threads_; ++t) pool.emplace_back(round, t);
  round(0);
  for (std::thread& th : pool) th.join();
  uint64_t sum = 0;
  for (uint64_t h : hits) sum += h;
  if (sum == 0) throw std::logic_error("host clock: no cache hits");
  return median(cpu);
}

// ---- Tracer ----------------------------------------------------------------

int Tracer::open(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({std::move(name), wall_s(), 0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  // SpanScope closes spans in reverse order of opening, so `id` is the top
  // of the stack.
  spans_[id].end = wall_s();
  stack_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

std::map<std::string, double> Tracer::self_by_layer() const {
  // Spans nest strictly (one thread, a stack), so the children of a span
  // never overlap and their durations add up to the time they cover.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name.substr(0, s.name.find('.'))] += s.end - s.start - child[i];
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}\n",
                  s.start - t0, s.end - t0, s.parent);
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name) << buf;
  }
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

// ---- Metrics ---------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, vu] : m_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  m_.push_back({name, {value, unit}});
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << '{';
  char buf[64];
  for (size_t i = 0; i < m_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", m_[i].second.first);
    os << (i ? ", " : "") << '"' << json_escape(m_[i].first)
       << "\": {\"value\": " << buf << ", \"unit\": \""
       << json_escape(m_[i].second.second) << "\"}";
  }
  os << '}';
  return os.str();
}

// ---- Ledger ----------------------------------------------------------------

void Ledger::op(const std::string& label, const std::string& why) {
  ++attempted_;
  if (why.empty()) return;
  ++failed_;
  if (reported_++ < 20) {
    std::cerr << "perfbench: FAILED " << label << ": " << why << "\n";
  }
}

void Ledger::ops_failed(uint64_t n, const std::string& why) {
  attempted_ += n;
  failed_ += n;
  if (reported_++ < 20) {
    std::cerr << "perfbench: FAILED " << n << " operations: " << why << "\n";
  }
}

// ---- digests ---------------------------------------------------------------

std::string digest(const cachesched::SimResult& r) {
  std::ostringstream os;
  os << r.scheduler << '|' << r.config << '|' << r.cores << '|' << r.cycles
     << '|' << r.instructions << '|' << r.tasks_executed << '|' << r.l1_hits
     << '|' << r.l2_hits << '|' << r.l2_misses << '|' << r.writebacks << '|'
     << r.invalidations << '|' << r.mem_stall_cycles << '|'
     << r.mem_queue_cycles << '|' << r.mem_busy_cycles << '|' << r.steals;
  for (uint64_t x : r.core_busy_cycles) os << ',' << x;
  os << '|';
  for (uint32_t x : r.task_l2_misses) os << ',' << x;
  os << '|';
  for (uint32_t x : r.task_refs) os << ',' << x;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(cachesched::fnv1a64(os.str())));
  return hex;
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("reference digests missing: " + path +
                             " (regenerate with run.py --write-reference "
                             "at the default seed)");
  }
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t tab = line.rfind('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("malformed reference line in " + path + ": " +
                               line);
    }
    ref.digests_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  if (ref.digests_.empty()) {
    throw std::runtime_error("reference digests empty: " + path);
  }
  return ref;
}

std::string Reference::check(const std::string& label,
                             const std::string& d) const {
  const auto it = digests_.find(label);
  if (it == digests_.end()) return "no reference digest for this job";
  if (it->second != d) {
    return "SimResult digest " + d + " != reference " + it->second;
  }
  return "";
}

void Reference::record(const std::string& label, const std::string& d) {
  digests_[label] = d;
}

void Reference::write(const std::string& path,
                      const std::string& header) const {
  std::ofstream out(path);
  out << header;
  for (const auto& [label, d] : digests_) out << label << '\t' << d << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
