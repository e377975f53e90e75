// ndpsim_figures: regenerate the paper's figures as JSONL on stdout.
//
//   ndpsim_figures [figure-id ...]   no ids: every figure
//   NDP_BENCH_SCALE=paper ...         the paper's topology sizes (slow)
//
// Each figure prints a header line {"figure","title","expectation","scale"}
// and then one line per point {"figure","point","seed","metrics":{...}},
// values %.17g so they read back bit for bit.  All points run as one
// parallel_runner sweep, so the numbers do not depend on the thread count.
// Exit status 1: a point threw (its line carries "error") or reported a
// non-finite metric (printed as null); 2: an unknown id.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "figures.h"

namespace {

using namespace ndpsim::figures;

std::string json(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + '"';
}

/// The point's JSONL line; `ok` turns false if the point failed.
std::string point_line(const figure& f, const point& p, const point_result& r,
                       bool& ok) {
  std::string line = "{\"figure\":" + json(f.id) + ",\"point\":" +
                     json(p.label) + ",\"seed\":" + std::to_string(p.seed) +
                     ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, value] : r.values) {
    char buf[32] = "null";
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::fprintf(stderr, "%s / %s: %s is %g\n", f.id, p.label.c_str(),
                   name.c_str(), value);
      ok = false;
    }
    line += sep + json(name) + ":" + buf;
    sep = ",";
  }
  line += "}";
  if (!r.error.empty()) {
    std::fprintf(stderr, "%s / %s failed: %s\n", f.id, p.label.c_str(),
                 r.error.c_str());
    line += ",\"error\":" + json(r.error);
    ok = false;
  }
  return line + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<figure>& all = registry();
  std::vector<const figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const auto found = std::find_if(all.begin(), all.end(), [&](const figure& f) {
      return std::string_view(f.id) == argv[i];
    });
    if (found == all.end()) {
      std::fprintf(stderr, "unknown figure id '%s'; valid ids:", argv[i]);
      for (const figure& f : all) std::fprintf(stderr, " %s", f.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(&*found);
  }
  if (selected.empty()) {
    for (const figure& f : all) selected.push_back(&f);
  }

  const char* scale_env = std::getenv("NDP_BENCH_SCALE");
  const bool paper = scale_env != nullptr && std::string_view(scale_env) == "paper";
  const scale sc = paper ? scale::paper : scale::reduced;
  std::vector<point> sweep;
  std::vector<std::size_t> n_points;
  for (const figure* f : selected) {
    std::vector<point> pts = f->points(sc);
    n_points.push_back(pts.size());
    std::move(pts.begin(), pts.end(), std::back_inserter(sweep));
  }
  const std::vector<point_result> results =
      run_points(sweep, ndpsim::parallel_runner{});

  bool ok = true;
  std::size_t next = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const figure& f = *selected[i];
    std::printf("{\"figure\":%s,\"title\":%s,\"expectation\":%s,\"scale\":%s}\n",
                json(f.id).c_str(), json(f.title).c_str(),
                json(f.expectation).c_str(), paper ? "\"paper\"" : "\"reduced\"");
    for (std::size_t end = next + n_points[i]; next < end; ++next) {
      std::printf("%s\n", point_line(f, sweep[next], results[next], ok).c_str());
    }
  }
  return ok ? 0 : 1;
}
