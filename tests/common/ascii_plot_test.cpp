#include "common/ascii_plot.hpp"

#include <limits>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace anadex {
namespace {

TEST(AsciiPlot, RendersGlyphAndLegend) {
  PlotSeries s;
  s.label = "data";
  s.glyph = '#';
  s.x = {0.0, 1.0};
  s.y = {0.0, 1.0};
  const PlotOptions opts{.x_label = "xs", .y_label = {}, .title = "my plot"};
  const std::string out = render_scatter({s}, opts);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("my plot"), std::string::npos);
  EXPECT_NE(out.find("xs"), std::string::npos);
  EXPECT_NE(out.find("'#' = data"), std::string::npos);
}

TEST(AsciiPlot, EmptySeriesListStillRenders) {
  const std::string out = render_scatter({}, PlotOptions{});
  EXPECT_NE(out.find("legend:"), std::string::npos);
}

TEST(AsciiPlot, SinglePointDegenerateRangeHandled) {
  PlotSeries s;
  s.x = {2.0};
  s.y = {3.0};
  const std::string out = render_scatter({s}, PlotOptions{});
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, NonFinitePointsSkipped) {
  PlotSeries s;
  s.x = {0.0, std::numeric_limits<double>::quiet_NaN(),
         std::numeric_limits<double>::infinity()};
  s.y = {0.0, 1.0, 1.0};
  const std::string out = render_scatter({s}, PlotOptions{});
  EXPECT_NE(out.find('*'), std::string::npos);  // the finite point renders
}

TEST(AsciiPlot, MismatchedSizesRejected) {
  PlotSeries s;
  s.x = {0.0, 1.0};
  s.y = {0.0};
  EXPECT_THROW(render_scatter({s}, PlotOptions{}), PreconditionError);
}

TEST(AsciiPlot, TooSmallAreaRejected) {
  PlotOptions opts;
  opts.width = 2;
  EXPECT_THROW(render_scatter({}, opts), PreconditionError);
}

TEST(AsciiPlot, LaterSeriesOverwriteEarlier) {
  PlotSeries a;
  a.glyph = 'a';
  a.x = {0.5};
  a.y = {0.5};
  PlotSeries b;
  b.glyph = 'b';
  b.x = {0.5};
  b.y = {0.5};
  const std::string out = render_scatter({a, b}, PlotOptions{});
  // Same cell: only the later glyph survives in the plot body (the legend
  // still mentions both).
  const auto legend_pos = out.find("legend:");
  EXPECT_EQ(out.substr(0, legend_pos).find('a'), std::string::npos);
  EXPECT_NE(out.substr(0, legend_pos).find('b'), std::string::npos);
}

TEST(AsciiPlot, AxisRangesPrinted) {
  PlotSeries s;
  s.x = {-2.0, 4.0};
  s.y = {10.0, 20.0};
  const std::string out = render_scatter({s}, PlotOptions{});
  EXPECT_NE(out.find("-2"), std::string::npos);
  EXPECT_NE(out.find("4"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
}

}  // namespace
}  // namespace anadex
