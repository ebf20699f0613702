// Reproduces paper Figure 8: (a) analytical system speedup from
// inter-question parallelism vs processor count, for 10 Mbps / 100 Mbps /
// 1 Gbps networks; (b) the model parameters (TREC-9 question set).
//
// Shape to reproduce: near-linear speedup for 1 Gbps (efficiency ~0.9 at
// N=1000); 100 Mbps good to ~100 processors; 10 Mbps saturating early.

#include <cstdio>

#include "benches.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "model/inter_question.hpp"
#include "support/bench_report.hpp"

int qadist::bench::run_fig8_inter_speedup(const BenchCli& /*cli*/) {
  using model::InterQuestionModel;
  using model::InterQuestionParams;

  const double networks[] = {10, 100, 1000};
  std::vector<InterQuestionModel> models;
  for (double mbps : networks) {
    InterQuestionParams p;
    p.net = Bandwidth::from_mbps(mbps);
    models.emplace_back(p);
  }

  bench::BenchReport report("fig8_inter_speedup");
  report.config("protocol", "analytical inter-question model (paper Sec. 5.1)");
  report.config("question_set", "TREC-9 calibration");

  TextTable table({"Processors", "10 Mbps", "100 Mbps", "1 Gbps",
                   "eff. @ 1 Gbps"});
  for (double n : {1.0, 10.0, 50.0, 100.0, 200.0, 400.0, 600.0, 800.0,
                   1000.0}) {
    table.add_row({format_double(n, 0), cell(models[0].speedup(n), 1),
                   cell(models[1].speedup(n), 1),
                   cell(models[2].speedup(n), 1),
                   cell(models[2].efficiency(n), 3)});
    const std::string procs = format_double(n, 0);
    for (std::size_t i = 0; i < models.size(); ++i) {
      report.metric("speedup",
                    {{"processors", procs},
                     {"net_mbps", format_double(networks[i], 0)}},
                    models[i].speedup(n));
    }
    report.metric("efficiency",
                  {{"processors", procs}, {"net_mbps", "1000"}},
                  models[2].efficiency(n));
  }
  std::printf(
      "Figure 8(a) — Analytical system speedup vs network bandwidth\n%s",
      table.render().c_str());

  const auto& p = models[0].params();
  TextTable params({"Parameter", "Value"});
  params.add_row({"T (avg question time)", cell(p.T, 0) + " s"});
  params.add_row({"Q (questions/processor)", cell(p.Q, 0)});
  params.add_row({"N_k keywords", cell(p.n_keywords, 0)});
  params.add_row({"N_p paragraphs", cell(p.n_paragraphs, 0)});
  params.add_row({"N_pa accepted", cell(p.n_accepted, 0)});
  params.add_row({"S_par paragraph bytes", cell(p.s_paragraph, 0)});
  params.add_row({"N_a answers / S_ans", cell(p.n_answers, 0) + " / " +
                                             cell(p.s_answer, 0) + " B"});
  params.add_row({"P_qa / P_pr / P_ap", cell(p.p_qa, 2) + " / " +
                                            cell(p.p_pr, 2) + " / " +
                                            cell(p.p_ap, 2)});
  params.add_row({"P_net", cell(p.p_net, 2)});
  std::printf("Figure 8(b) — Model parameters (TREC-9 calibration)\n%s",
              params.render().c_str());
  std::printf(
      "Expected: efficiency ~0.9 at 1000 processors on 1 Gbps, and ~0.9 at "
      "100 processors on 100 Mbps (paper Sec. 5.1).\n");
  report.metric("efficiency_at_1000_procs_1gbps", {},
                models[2].efficiency(1000.0), 0.9);
  report.write();
  return 0;
}
