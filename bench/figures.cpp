#include "figures.h"

#include <exception>

namespace ndpsim::figures {

// One definition per file under bench/figures/.
figure fig02_collapse();
figure fig04_latency_cdf();
figure fig08_rpc_latency();
figure fig09_testbed_incast();
figure fig10_priority();
figure fig11_iw_throughput();
figure fig12_pull_spacing();
figure fig13_incast_jitter();
figure fig14_permutation();
figure fig15_short_fct();
figure fig16_incast_scaling();
figure fig17_iw_sensitivity();
figure fig19_collateral();
figure fig20_large_incast();
figure fig21_sender_limited();
figure fig22_asymmetry();
figure fig23_oversubscribed();
figure text_loadbalance();
figure text_phost();
figure text_scaling();
figure ablation_ndp_queue();

const std::vector<figure>& registry() {
  static const std::vector<figure> all = {
      fig02_collapse(),       fig04_latency_cdf(),    fig08_rpc_latency(),
      fig09_testbed_incast(), fig10_priority(),       fig11_iw_throughput(),
      fig12_pull_spacing(),   fig13_incast_jitter(),  fig14_permutation(),
      fig15_short_fct(),      fig16_incast_scaling(), fig17_iw_sensitivity(),
      fig19_collateral(),     fig20_large_incast(),   fig21_sender_limited(),
      fig22_asymmetry(),      fig23_oversubscribed(), text_loadbalance(),
      text_phost(),           text_scaling(),         ablation_ndp_queue(),
  };
  return all;
}

std::vector<point_result> run_points(const std::vector<point>& points,
                                     const parallel_runner& runner) {
  std::vector<experiment_config> configs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    configs[i].seed = points[i].seed;
    configs[i].param = static_cast<std::int64_t>(i);  // the result slot
  }
  // Each job writes only its own slot, so the body needs no lock.  Errors
  // are kept per point instead of letting the runner rethrow the first one,
  // so the caller can say which point failed.
  std::vector<point_result> results(points.size());
  const auto body = [&](const experiment_config& cfg, sim_env& env,
                        fct_recorder&) {
    point_result& r = results[static_cast<std::size_t>(cfg.param)];
    try {
      r.values = points[static_cast<std::size_t>(cfg.param)].body(env);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
  };
  (void)runner.run(configs, body);
  return results;
}

}  // namespace ndpsim::figures
