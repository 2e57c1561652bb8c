#include "check/reproducer.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace cachesched {
namespace check {
namespace {

constexpr const char* kMagicPrefix = "cachesched-crash-repro v";
constexpr const char* kVersion = "3";

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("bad crash repro: " + what);
}

uint64_t parse_u64(const std::string& key, const std::string& val) {
  if (val.empty() || val[0] == '-' || val[0] == '+') {
    fail(key + "=" + val + " is not a valid unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(val.c_str(), &end, 10);
  if (errno == ERANGE || !end || *end != '\0' || end == val.c_str()) {
    fail(key + "=" + val + " is not a valid unsigned integer");
  }
  return raw;
}

double parse_f64(const std::string& key, const std::string& val) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(val.c_str(), &end);
  if (errno == ERANGE || !end || *end != '\0' || end == val.c_str()) {
    fail(key + "=" + val + " is not a valid number");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& val) {
  if (val == "1" || val == "true") return true;
  if (val == "0" || val == "false") return false;
  fail(key + "=" + val + " is not a boolean");
}

/// Inverse of ConfigOverrides::serialize():
/// "l2_hit=19,mem_latency=-,banks=-,dispatch=-,quantum=-" ('-' = unset).
ConfigOverrides parse_overrides(const std::string& s) {
  ConfigOverrides o;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("overrides item \"" + item + "\" is not key=value");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (val == "-") continue;
    const uint64_t v = parse_u64("overrides." + key, val);
    if (key == "l2_hit") {
      o.l2_hit_cycles = static_cast<int>(v);
    } else if (key == "mem_latency") {
      o.mem_latency_cycles = static_cast<int>(v);
    } else if (key == "banks") {
      o.l2_banks = static_cast<int>(v);
    } else if (key == "dispatch") {
      o.task_dispatch_cycles = static_cast<uint32_t>(v);
    } else if (key == "quantum") {
      o.quantum_cycles = v;
    } else {
      fail("unknown overrides key \"" + key + "\"");
    }
  }
  return o;
}

/// Reproducer values are single-line; a violation message that somehow
/// contains a newline would corrupt the line format, so flatten it.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::string CrashRepro::serialize() const {
  std::ostringstream os;
  os << kMagicPrefix << kVersion << "\n";
  os << "# replay: cachesched_cli replay-crash --repro=<this file>\n";
  os << "workload=" << one_line(workload) << "\n";
  os << "sched=" << one_line(sched) << "\n";
  os << "tech=" << tech << "\n";
  os << "cores=" << cores << "\n";
  os << "scale=" << scale << "\n";
  os << "task_ws=" << task_ws << "\n";
  os << "fine_grained=" << (fine_grained ? 1 : 0) << "\n";
  os << "seed=" << seed << "\n";
  os << "overrides=" << overrides.serialize() << "\n";
  os << "check=" << one_line(check) << "\n";
  os << "op_index=" << op_index << "\n";
  os << "violation=" << one_line(violation) << "\n";
  return os.str();
}

CrashRepro CrashRepro::parse(const std::string& text) {
  std::stringstream ss(text);
  std::string line;
  std::getline(ss, line);  // leaves `line` empty on an empty file
  const std::string prefix = kMagicPrefix;
  if (line.rfind(prefix, 0) != 0) {
    fail("missing magic line \"" + prefix + kVersion + "\"");
  }
  if (const std::string ver = line.substr(prefix.size()); ver != kVersion) {
    fail("v" + ver + " reproducers are no longer supported (this build " +
         "reads v" + kVersion + " only); re-create the run with the " +
         "current cachesched_cli");
  }
  std::map<std::string, std::string> kv;
  while (std::getline(ss, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail("line \"" + line + "\" is not key=value");
    }
    if (!kv.emplace(line.substr(0, eq), line.substr(eq + 1)).second) {
      fail("duplicate key " + line.substr(0, eq));
    }
  }
  CrashRepro r;
  auto take = [&kv](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) fail(std::string("missing key ") + key);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  r.workload = take("workload");
  r.sched = take("sched");
  r.tech = take("tech");
  r.cores = static_cast<int>(parse_u64("cores", take("cores")));
  r.scale = parse_f64("scale", take("scale"));
  r.task_ws = parse_u64("task_ws", take("task_ws"));
  r.fine_grained = parse_bool("fine_grained", take("fine_grained"));
  r.seed = parse_u64("seed", take("seed"));
  r.overrides = parse_overrides(take("overrides"));
  r.check = take("check");
  r.op_index = parse_u64("op_index", take("op_index"));
  r.violation = take("violation");
  if (!kv.empty()) fail("unknown key " + kv.begin()->first);
  if (r.workload.empty()) fail("workload is empty");
  if (r.sched.empty()) fail("sched is empty");
  return r;
}

void CrashRepro::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write crash repro: " + path);
  out << serialize();
  out.flush();
  if (!out) throw std::runtime_error("failed writing crash repro: " + path);
}

CrashRepro CrashRepro::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read crash repro: " + path);
  std::ostringstream body;
  body << in.rdbuf();
  return parse(body.str());
}

}  // namespace check
}  // namespace cachesched
