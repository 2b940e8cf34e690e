// Printing helpers shared by the per-figure benchmark binaries: consistent
// banners, front tables, metric tables and terminal scatter plots.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/series.hpp"
#include "expt/runner.hpp"

namespace anadex::expt {

/// Prints the figure banner (id, paper caption, reproduction note).
void print_banner(std::ostream& os, const std::string& figure_id, const std::string& caption);

/// Converts a front to a (cload_pF, power_mW) series sorted by load.
Series front_series(const std::string& title, const std::vector<FrontSample>& front);

/// Prints one or more fronts as a shared terminal scatter plot
/// (x = C_load in pF, y = power in mW) followed by each front's table.
void print_fronts(std::ostream& os,
                  const std::vector<std::pair<std::string, std::vector<FrontSample>>>& fronts);

/// Prints a one-line quality summary of a run outcome.
void print_outcome_summary(std::ostream& os, const std::string& label,
                           const RunOutcome& outcome);

/// Prints a "paper vs measured" comparison line for EXPERIMENTS.md capture.
void print_paper_vs_measured(std::ostream& os, const std::string& what,
                             const std::string& paper_value,
                             const std::string& measured_value);

}  // namespace anadex::expt
