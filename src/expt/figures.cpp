#include "expt/figures.hpp"

#include <iomanip>
#include <ostream>

#include "common/ascii_plot.hpp"

namespace anadex::expt {

void print_banner(std::ostream& os, const std::string& figure_id, const std::string& caption) {
  os << "\n================================================================\n"
     << figure_id << " — " << caption << '\n'
     << "================================================================\n";
}

Series front_series(const std::string& title, const std::vector<FrontSample>& front) {
  Series series(title, {"cload_pF", "power_mW"});
  for (const auto& s : front) series.add_row({s.cload_f * 1e12, s.power_w * 1e3});
  series.sort_by(0);
  return series;
}

void print_fronts(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::vector<FrontSample>>>& fronts) {
  static constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#', '@'};
  std::vector<PlotSeries> plot;
  for (std::size_t i = 0; i < fronts.size(); ++i) {
    PlotSeries ps;
    ps.label = fronts[i].first;
    ps.glyph = kGlyphs[i % sizeof(kGlyphs)];
    for (const auto& s : fronts[i].second) {
      ps.x.push_back(s.cload_f * 1e12);
      ps.y.push_back(s.power_w * 1e3);
    }
    plot.push_back(std::move(ps));
  }
  PlotOptions options;
  options.x_label = "Load Capacitance (pF)";
  options.y_label = "Power (mW)";
  os << render_scatter(plot, options);
  for (const auto& [label, front] : fronts) {
    front_series(label, front).write_table(os);
  }
}

void print_outcome_summary(std::ostream& os, const std::string& label,
                           const RunOutcome& outcome) {
  os << std::setw(18) << label << "  front_area=" << std::setw(8) << std::setprecision(4)
     << outcome.front_area << " (0.1mW*pF, lower better)"
     << "  hv=" << std::setw(7) << std::setprecision(4) << outcome.hypervolume_norm
     << "  |front|=" << std::setw(3) << outcome.front.size()
     << "  cluster[4,5]pF=" << std::setw(6) << std::setprecision(3)
     << outcome.clustering_4to5 << "  span=" << std::setprecision(3)
     << outcome.load_span_pf << "pF"
     << "  evals=" << outcome.evaluations;
  if (outcome.cache_hits > 0) {
    os << " (distinct=" << outcome.distinct_evaluations << ", cached="
       << outcome.cache_hits << ")";
  }
  os << "  " << std::setprecision(3) << outcome.seconds << "s\n";
}

void print_paper_vs_measured(std::ostream& os, const std::string& what,
                             const std::string& paper_value,
                             const std::string& measured_value) {
  os << "  [paper-vs-measured] " << what << ": paper=" << paper_value
     << " | measured=" << measured_value << '\n';
}

}  // namespace anadex::expt
