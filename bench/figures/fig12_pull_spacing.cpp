// Fig 12: distribution of the spacing between PULL packets for 1500B and
// 9000B data packets, replaying the measured imperfect pacing of the Linux
// prototype (host-artifact model, see src/host/artifacts.h).
#include "common.h"
#include "host/artifacts.h"
#include "stats/cdf.h"

namespace ndpsim::figures {

figure fig12_pull_spacing() {
  return {"fig12",
          "Fig 12: PULL spacing at the sender for 1500B and 9000B packets",
          "medians match the 1.2us / 7.2us targets; the 1500B curve has early "
          "back-to-back pulls and a multi-x tail, the 9000B curve is tight",
          [](scale) {
            std::vector<point> pts;
            for (const std::uint32_t pkt : {1500, 9000}) {
              pts.push_back(
                  {std::to_string(pkt) + "B packets", 8,
                   [pkt](sim_env& env) -> metrics {
                     const simtime_t nominal = serialization_time(pkt, gbps(10));
                     auto jitter = make_pull_jitter(env, pkt);
                     sample_set s;
                     for (int i = 0; i < 100000; ++i) {
                       s.add(to_us(jitter(nominal)));
                     }
                     return {{"target_us", to_us(nominal)},
                             {"p05_us", s.quantile(0.05)},
                             {"median_us", s.median()},
                             {"p90_us", s.quantile(0.90)},
                             {"p99_us", s.quantile(0.99)}};
                   }});
            }
            return pts;
          }};
}

}  // namespace ndpsim::figures
