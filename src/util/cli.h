// Minimal command-line parsing for bench/example binaries.
// Supports --key=value, --key value, and boolean --flag forms. Unknown keys
// are reported so that experiment scripts fail loudly instead of silently
// running the wrong sweep.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace cachesched {

/// Process exit codes for the CLI tools — one vocabulary instead of the
/// ad-hoc 1/2 mix that grew over time. check_unused() returns
/// kExitUsage-compatible 2 for unknown flags.
enum ExitCode : int {
  kExitOk = 0,
  /// Runtime failure: simulation error, I/O error, bad input data.
  kExitRuntime = 1,
  /// Usage error: unknown flag/subcommand, malformed spec string.
  kExitUsage = 2,
  /// The sweep finished but some jobs were quarantined, or a merge was
  /// assembled with holes — output exists but is incomplete.
  kExitQuarantinedHoles = 3,
  /// A runtime invariant checker (--check) caught a violation. A crash
  /// reproducer file was written (to --repro-out, default crash.repro).
  kExitVerifyFailed = 4,
  /// SIGINT/SIGTERM: the sweep shut down gracefully (completed results
  /// durable; a --resume command line was printed). 128 + SIGINT's 2,
  /// the shell convention.
  kExitInterrupted = 130,
};

/// A flag value that is not what the flag takes: a number that does not
/// parse in full ("4x", "abc"), or a count or duration that is negative
/// or too large for its field. The message names the flag and the value;
/// cachesched_cli reports it and exits kExitUsage before any work runs.
class CliValueError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Numeric flag getters parse the whole value and throw CliValueError
/// on anything else, so "--cores=4x" is an error rather than 4 cores.
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  int64_t get_int(const std::string& key, int64_t def) const;
  /// get_int for counts, sizes and durations: a negative value, or one
  /// above `max` (the largest the caller's field holds), is a
  /// CliValueError instead of wrapping when the caller narrows it.
  uint64_t get_uint(const std::string& key, uint64_t def,
                    uint64_t max = UINT64_MAX) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Comma-separated integer list, e.g. --cores=1,2,4,8.
  std::vector<int64_t> get_int_list(const std::string& key,
                                    std::vector<int64_t> def) const;

  /// Comma-separated double list, e.g. --scales=0.125,0.25.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def) const;

  /// Comma-separated string list, e.g. --apps=lu,mergesort.
  std::vector<std::string> get_list(const std::string& key,
                                    const std::string& def) const;

  /// Keys that were provided but never queried; call at the end of main()
  /// to warn about typos.
  std::vector<std::string> unused() const;

  /// Every key the program has queried so far (via has/get*), whether or
  /// not it was provided — the program's flag vocabulary, used to
  /// suggest the nearest valid flag for a typo.
  std::vector<std::string> queried() const;

  /// Returns 0 if every provided key was queried; otherwise reports each
  /// unknown flag on stderr — with a "did you mean --X?" suggestion when
  /// a queried flag is within edit distance — and returns 2. Use as the
  /// final `return` of main() so typo'd experiment scripts fail loudly
  /// in CI.
  int check_unused() const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> used_;
};

/// The candidate closest to `unknown` by Levenshtein distance, or "" if
/// none is close enough to be a plausible typo (distance must be <= 2,
/// or <= 3 for names of 6+ characters, and strictly less than the
/// unknown name's length). Exposed for check_unused and tests.
std::string nearest_flag(const std::string& unknown,
                         const std::vector<std::string>& candidates);

}  // namespace cachesched
