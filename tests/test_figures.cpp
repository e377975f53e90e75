// The figure registry behind ndpsim_figures: every figure is well formed at
// both scales, and a figure's numbers do not depend on how many threads run
// its points.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "figures.h"

namespace ndpsim::figures {
namespace {

TEST(figures, ids_are_unique) {
  std::set<std::string> ids;
  for (const figure& f : registry()) {
    EXPECT_TRUE(ids.insert(f.id).second) << "duplicate id " << f.id;
  }
  EXPECT_EQ(ids.size(), 21u);
}

TEST(figures, every_figure_is_described_and_has_points) {
  for (const figure& f : registry()) {
    EXPECT_NE(std::string(f.title), "") << f.id;
    EXPECT_NE(std::string(f.expectation), "") << f.id;
    for (const scale sc : {scale::reduced, scale::paper}) {
      const std::vector<point> pts = f.points(sc);
      EXPECT_FALSE(pts.empty()) << f.id;
      std::set<std::string> labels;
      for (const point& p : pts) {
        EXPECT_TRUE(labels.insert(p.label).second)
            << f.id << ": duplicate point " << p.label;
        EXPECT_TRUE(p.body) << f.id << " / " << p.label;
      }
    }
  }
}

TEST(figures, results_do_not_depend_on_thread_count) {
  std::vector<point> pts;
  for (const figure& f : registry()) {
    const std::string id = f.id;
    if (id == "fig08" || id == "fig10" || id == "fig11") {
      for (point& p : f.points(scale::reduced)) pts.push_back(std::move(p));
    }
  }
  const auto serial = run_points(pts, parallel_runner(1));
  const auto pooled = run_points(pts, parallel_runner(4));
  ASSERT_EQ(serial.size(), pts.size());
  ASSERT_EQ(pooled.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(serial[i].error, "") << pts[i].label;
    EXPECT_EQ(pooled[i].error, "") << pts[i].label;
    EXPECT_FALSE(serial[i].values.empty()) << pts[i].label;
    ASSERT_EQ(serial[i].values.size(), pooled[i].values.size());
    for (const auto& [name, value] : serial[i].values) {
      ASSERT_EQ(pooled[i].values.count(name), 1u) << name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(pooled[i].values.at(name)))
          << pts[i].label << " / " << name;
    }
  }
}

}  // namespace
}  // namespace ndpsim::figures
