// The paper's figures and tables as sweep presets.
//
// Each reproduction is one FigureSpec value: a job matrix at an input
// scale, and a projection that turns the finished sweep into the
// figure's tables and summary lines. `cachesched_cli figure NAME` runs a
// preset through run_sweep; the integration tests take their records
// from the same matrices, so the CLI and the tests share one definition
// of each figure. A preset's output is byte-identical for any worker
// count (run_sweep's guarantee; tests/figure_test.cc checks it).
//
//   const FigureSpec& fig = find_figure("fig2_default_configs");
//   for (const FigureTable& t : run_figure(fig, 0.03125, {.workers = 4}))
//     t.table.emit("fig2_" + t.name + ".csv");
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "util/table.h"

namespace cachesched {

/// One table of a figure.
struct FigureTable {
  std::string name;     // CSV suffix: --csv=PREFIX writes PREFIX_<name>.csv
  std::string title;    // banner printed above the table
  Table table;
  std::string summary;  // lines printed below the table ("" = none)
};

struct FigureSpec {
  const char* name;      // CLI name, e.g. "fig2_default_configs"
  const char* artifact;  // the paper figure or section it reproduces
  double default_scale;
  /// The preset's jobs at input scale `scale` (caches scale with it).
  std::vector<SweepJob> (*matrix)(double scale);
  /// The figure's tables, read from a sweep of matrix(scale).
  std::vector<FigureTable> (*project)(const SweepResults&, double scale);
};

/// Every preset, in paper order.
std::span<const FigureSpec> figures();

/// The preset called `name`. Throws std::invalid_argument listing the
/// presets, with the nearest name as a hint, when there is none.
const FigureSpec& find_figure(const std::string& name);

/// find_figure(name).matrix(scale).
std::vector<SweepJob> figure_matrix(const std::string& name, double scale);

/// Runs the preset's matrix and projects it.
std::vector<FigureTable> run_figure(const FigureSpec& fig, double scale,
                                    const SweepOptions& options = {});

}  // namespace cachesched
