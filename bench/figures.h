// The paper's figure suite as a registry.
//
// Every figure of the paper, the in-text numbers and the NDP-switch ablation
// is one record: an id, a title, the paper's expectation and the points that
// reproduce it.  `ndpsim_figures` runs the selected figures and prints JSONL;
// tests/test_figures.cpp checks the registry itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/parallel_runner.h"
#include "net/sim_env.h"

namespace ndpsim::figures {

/// Topology sizes: laptop-friendly by default, the paper's (432/8192-host
/// FatTrees etc.) with NDP_BENCH_SCALE=paper.
enum class scale { reduced, paper };

/// Every number one point reports, by name.
using metrics = std::map<std::string, double>;

/// One simulation of a figure.  `body` builds everything from `env`, which
/// the runner seeds with `seed`, and returns the point's metrics.
struct point {
  std::string label;
  std::uint64_t seed = 1;
  std::function<metrics(sim_env& env)> body;
};

struct figure {
  const char* id;
  const char* title;
  const char* expectation;  ///< what the paper reports, as prose
  std::function<std::vector<point>(scale)> points;
};

/// Every figure, in paper order.
[[nodiscard]] const std::vector<figure>& registry();

struct point_result {
  metrics values;
  std::string error;  ///< what the body threw; empty when it returned
};

/// Runs each point on its own seeded env through `runner`.  Result i
/// belongs to points[i] and is bitwise independent of the thread count.
[[nodiscard]] std::vector<point_result> run_points(
    const std::vector<point>& points, const parallel_runner& runner);

}  // namespace ndpsim::figures
