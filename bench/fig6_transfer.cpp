// Fig. 6 — transfer learning across technology nodes and topologies
// (paper Sec. 4.3).
//
// Six panels, each comparing KATO without transfer against KATO with KAT-GP
// + Selective Transfer Learning.  Source knowledge = 200 random simulations
// of the source circuit.  Constrained mode, 200 initial target samples.
// Expected shape: transfer reaches the no-transfer final value with roughly
// half the simulations (~2.4-2.5x in the paper) and ends slightly better.
//
// Panels (a,b) additionally run the FOM-mode node-transfer comparison
// against TLMBO (the Gaussian-copula style baseline handles only FOM
// optimization, as the paper notes).

#include <iostream>
#include <string>

#include "core/experiment.hpp"

using namespace kato;

namespace {

struct Panel {
  const char* label;
  std::string src_kind;
  const char* src_node;
  std::string tgt_kind;
  const char* tgt_node;
  bool fom_comparison;  ///< also run the FOM-mode TLMBO comparison
};

void run_panel(const Panel& panel) {
  auto src_circuit = ckt::make_circuit(panel.src_kind, panel.src_node);
  auto tgt_circuit = ckt::make_circuit(panel.tgt_kind, panel.tgt_node);
  std::cout << "--- Fig.6" << panel.label << ": " << src_circuit->name()
            << "  ->  " << tgt_circuit->name() << " ---\n";

  const auto seeds = core::seed_list(1);

  bo::BoConfig cfg = core::bench_config();
  cfg.n_init = 200;  // paper: 200 initial target samples (constrained)
  cfg.batch = 4;
  cfg.iterations = 15;

  auto cmp = core::run_transfer_comparison(*src_circuit, *tgt_circuit, 200, cfg,
                                           seeds);
  const auto& source = cmp.source;
  std::vector<core::MethodSeries> methods{std::move(cmp.with_transfer),
                                          std::move(cmp.without_transfer)};
  core::print_series(std::cout, "constrained running best", methods, 40);

  // Speedup: sims for TL to reach the no-transfer final median.
  const double no_tl_final = methods[1].band.median.back();
  const double tl_sims = core::median_sims_to_reach(methods[0], no_tl_final, true);
  const double total = static_cast<double>(methods[0].band.median.size());
  std::cout << "TL reaches no-TL final (" << util::fmt(no_tl_final, 2)
            << ") after " << util::fmt(tl_sims, 0) << "/" << util::fmt(total, 0)
            << " sims -> speedup x" << util::fmt(total / tl_sims, 2)
            << "; final TL " << util::fmt(methods[0].band.median.back(), 2)
            << "\n";
  const auto& tl_run = methods[0].runs.front();
  std::cout << "STL weights (w_kat : w_self) = " << util::fmt(tl_run.stl_w_kat, 0)
            << " : " << util::fmt(tl_run.stl_w_self, 0) << "\n";

  if (panel.fom_comparison) {
    util::Rng cal_rng(55);
    const auto norm = ckt::calibrate_fom(*tgt_circuit, 300, cal_rng);
    bo::BoConfig fom_cfg = core::bench_config();
    fom_cfg.n_init = 10;
    fom_cfg.batch = 4;
    fom_cfg.iterations = 20;
    std::vector<core::MethodSeries> fom_methods;
    fom_methods.push_back(core::run_fom_series(
        *tgt_circuit, norm, bo::FomMethod::kato, fom_cfg, seeds, &source,
        "KATO-TL"));
    fom_methods.push_back(core::run_fom_series(
        *tgt_circuit, norm, bo::FomMethod::tlmbo, fom_cfg, seeds, &source));
    fom_methods.push_back(core::run_fom_series(
        *tgt_circuit, norm, bo::FomMethod::kato, fom_cfg, seeds, nullptr,
        "KATO"));
    core::print_series(std::cout, "FOM-mode node transfer (vs TLMBO)",
                       fom_methods, 30);
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  std::cout << "== Fig. 6: transfer learning, seeds=" << core::seed_list(1).size()
            << " ==\n";
  const std::string buffer_deck = std::string("netlist:") + KATO_SOURCE_DIR +
                                  "/circuits/netlists/buffer_tran.cir";
  const std::string corner_deck =
      std::string("netlist:") + KATO_SOURCE_DIR +
      "/circuits/netlists/opamp2_corners.cir";
  const Panel panels[] = {
      {"(a) node", "opamp2", "180nm", "opamp2", "40nm", true},
      {"(b) node", "opamp3", "180nm", "opamp3", "40nm", false},
      {"(c) topology", "opamp3", "40nm", "opamp2", "40nm", false},
      {"(d) topology", "opamp2", "40nm", "opamp3", "40nm", false},
      {"(e) node+topology", "opamp3", "180nm", "opamp2", "40nm", false},
      {"(f) node+topology", "opamp2", "180nm", "opamp3", "40nm", false},
      // Beyond the paper's panels: node transfer on the time-domain
      // step-buffer workload — slew/settling/overshoot specs driven by the
      // transient engine instead of AC small-signal measures.
      {"(g) node (transient)", buffer_deck, "180nm", buffer_deck, "40nm", false},
      // Corner-robust node transfer: tt/ss/ff PVT corners x 8 mismatch
      // samples per candidate, worst-case/quantile-aggregated specs on both
      // nodes (see README "Corners and Monte Carlo").
      {"(h) node (corners)", corner_deck, "180nm", corner_deck, "40nm", false},
  };
  for (const auto& panel : panels) run_panel(panel);
  return 0;
}
