#include "netlist/elaborate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.hpp"
#include "sim/ac.hpp"
#include "sim/device_table.hpp"
#include "util/rng.hpp"

namespace kato::net {

std::string temperature_problem(double kelvin, const ckt::Pdk& pdk) {
  const double floor =
      std::max(sim::device_table_min_temp(pdk.nmos.subthreshold_n),
               sim::device_table_min_temp(pdk.pmos.subthreshold_n));
  if (kelvin >= floor && std::isfinite(kelvin)) return "";
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "must be a finite Kelvin temperature >= %.4g (device-table "
                "floor), got %g",
                floor, kelvin);
  return buf;
}

std::string subthreshold_n_problem(double n, double kelvin) {
  const double floor = sim::device_table_min_temp(n);
  if (kelvin >= floor) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "= %g needs more than %zu device-table cells at %g K (this n "
                "fits only at >= %.4g K)",
                n, sim::k_device_table_max_cells, kelvin, floor);
  return buf;
}

std::map<std::string, double> pdk_builtins(const ckt::Pdk& pdk) {
  return {
      {"vdd", pdk.vdd},
      {"lmin", pdk.lmin},
      {"lmax", pdk.lmax},
      {"is180", pdk.name == "180nm" ? 1.0 : 0.0},
  };
}

namespace {

sim::MosModel apply_model_overrides(sim::MosModel base, const ModelDef& def,
                                    const Scope& scope) {
  for (const auto& [key, expr] : def.overrides) {
    const double v = eval_expr(*expr, scope);
    if (key == "vth0")
      base.vth0 = v;
    else if (key == "kp")
      base.kp = v;
    else if (key == "lambda")
      base.lambda_coef = v;
    else if (key == "cox")
      base.cox = v;
    else if (key == "cgdo")
      base.cgdo = v;
    else if (key == "cj")
      base.cj_w = v;
    else if (key == "n") {
      if (!(v > 0.0) || !std::isfinite(v))
        throw NetlistError(expr->loc, ".model n must be finite and > 0");
      base.subthreshold_n = v;
    } else
      throw NetlistError(expr->loc, "unknown .model parameter '" + key +
                                        "' (vth0 kp lambda cox cgdo cj n)");
  }
  return base;
}

sim::Diode apply_diode_overrides(sim::Diode base, const ModelDef& def,
                                 const Scope& scope) {
  for (const auto& [key, expr] : def.overrides) {
    const double v = eval_expr(*expr, scope);
    if (key == "is")
      base.is_sat = v;
    else if (key == "n")
      base.ideality = v;
    else if (key == "area")
      base.area = v;
    else if (key == "xti")
      base.xti = v;
    else if (key == "eg")
      base.eg = v;
    else
      throw NetlistError(expr->loc, "unknown diode .model parameter '" + key +
                                        "' (is n area xti eg)");
  }
  return base;
}

class Elaborator {
 public:
  Elaborator(const Deck& deck, const ckt::Pdk& pdk, const Scope& bindings)
      : deck_(deck), pdk_(pdk), bindings_(bindings) {
    models_.emplace("nmos", pdk.nmos);
    models_.emplace("pmos", pdk.pmos);
    for (const auto& def : deck.models) {
      if (def.name == "nmos" || def.name == "pmos")
        throw NetlistError(def.loc, "model name '" + def.name +
                                        "' shadows the builtin PDK model");
      if (def.diode)
        diode_models_.emplace(def.name,
                              apply_diode_overrides(sim::Diode{}, def, bindings));
      else
        models_.emplace(def.name,
                        apply_model_overrides(def.nmos ? pdk.nmos : pdk.pmos,
                                              def, bindings));
    }
  }

  Elaboration run() {
    flatten(deck_.cards, /*prefix=*/"",
            /*ports=*/{}, /*locals=*/nullptr, /*stack=*/{});
    structural_lint();

    if (deck_.ac.present) {
      const double per_decade = eval_expr(*deck_.ac.per_decade, bindings_);
      const double f_lo = eval_expr(*deck_.ac.f_lo, bindings_);
      const double f_hi = eval_expr(*deck_.ac.f_hi, bindings_);
      if (!(per_decade >= 1.0) || !(f_lo > 0.0) || !(f_hi > f_lo))
        throw NetlistError(deck_.ac.loc,
                           ".ac needs pts/decade >= 1 and 0 < f_lo < f_hi");
      out_.freqs =
          sim::log_freq_grid(f_lo, f_hi, static_cast<int>(per_decade));
    }
    if (deck_.tran.present) {
      out_.tran.present = true;
      out_.tran.tstep = eval_expr(*deck_.tran.tstep, bindings_);
      out_.tran.tstop = eval_expr(*deck_.tran.tstop, bindings_);
      if (!(out_.tran.tstep > 0.0) || !(out_.tran.tstop >= out_.tran.tstep))
        throw NetlistError(deck_.tran.loc,
                           ".tran needs 0 < tstep <= tstop");
      out_.tran.fixed_step = deck_.tran.fixed_step;
      out_.tran.backward_euler = deck_.tran.backward_euler;
    }
    for (const auto& ic : deck_.ics) {
      if (!deck_.tran.present)
        throw NetlistError(ic.loc, ".ic without a .tran line");
      if (ic.node == "0" || ic.node == "gnd")
        throw NetlistError(ic.loc, "cannot set an initial condition on ground");
      const auto it = out_.nodes.find(ic.node);
      if (it == out_.nodes.end())
        throw NetlistError(ic.loc, "unknown node '" + ic.node + "' in .ic");
      out_.tran.ics.emplace_back(it->second, eval_expr(*ic.value, bindings_));
    }
    if (deck_.temperature != nullptr) {
      out_.temperature = eval_expr(*deck_.temperature, bindings_);
      const std::string why = temperature_problem(out_.temperature, pdk_);
      if (!why.empty())
        throw NetlistError(deck_.temperature->loc, ".temp " + why);
    }
    return std::move(out_);
  }

 private:
  /// Build the sim::Waveform for a V card (Kind::none when quiet).
  sim::Waveform build_waveform(const DeviceCard& card, const Scope& env) {
    sim::Waveform w;
    if (card.wave.empty()) return w;
    auto arg = [&](std::size_t i) { return eval_expr(*card.wave_args[i], env); };
    const std::size_t n_args = card.wave_args.size();
    if (card.wave == "pulse") {
      if (n_args != 7)
        throw NetlistError(card.wave_loc,
                           "pulse needs 7 arguments (v1 v2 td tr tf pw per), got " +
                               std::to_string(n_args));
      w.kind = sim::Waveform::Kind::pulse;
      w.v1 = arg(0);
      w.v2 = arg(1);
      w.td = arg(2);
      w.tr = arg(3);
      w.tf = arg(4);
      w.pw = arg(5);
      w.period = arg(6);
    } else if (card.wave == "sin") {
      if (n_args < 3 || n_args > 5)
        throw NetlistError(card.wave_loc,
                           "sin needs 3 to 5 arguments (vo va freq [td theta]), got " +
                               std::to_string(n_args));
      w.kind = sim::Waveform::Kind::sine;
      w.vo = arg(0);
      w.va = arg(1);
      w.freq = arg(2);
      w.td = n_args > 3 ? arg(3) : 0.0;
      w.theta = n_args > 4 ? arg(4) : 0.0;
    } else {  // pwl — the parser only admits pulse/pwl/sin
      if (n_args < 4 || n_args % 2 != 0)
        throw NetlistError(card.wave_loc,
                           "pwl needs an even number (>= 4) of arguments "
                           "(t1 v1 t2 v2 ...), got " +
                               std::to_string(n_args));
      w.kind = sim::Waveform::Kind::pwl;
      for (std::size_t i = 0; i < n_args; i += 2) {
        w.t.push_back(arg(i));
        w.v.push_back(arg(i + 1));
      }
    }
    return w;
  }

  /// Resolve a node name within one instantiation scope.  Ports map to
  /// parent nodes; "0"/"gnd" are global ground; anything else is a local
  /// node, flat-named with the instance prefix.
  int resolve_node(const std::string& name, const std::string& prefix,
                   const std::map<std::string, int>& ports,
                   const SourceLoc& loc) {
    if (name == "0" || name == "gnd") {
      grounded_ = true;
      return sim::Circuit::ground;
    }
    if (auto it = ports.find(name); it != ports.end()) return it->second;
    const std::string flat = prefix + name;
    if (auto it = out_.nodes.find(flat); it != out_.nodes.end())
      return it->second;
    const int node = out_.circuit.new_node(flat);
    out_.nodes.emplace(flat, node);
    touches_.resize(static_cast<std::size_t>(node) + 1, 0);
    node_loc_.resize(static_cast<std::size_t>(node) + 1);
    node_loc_[static_cast<std::size_t>(node)] = loc;
    return node;
  }

  void touch(int node) {
    if (node != sim::Circuit::ground)
      ++touches_[static_cast<std::size_t>(node)];
  }

  void flatten(const std::vector<DeviceCard>& cards, const std::string& prefix,
               const std::map<std::string, int>& ports, const Scope* locals,
               std::vector<std::string> stack) {
    const Scope& env = locals != nullptr ? *locals : bindings_;
    for (const auto& card : cards) {
      std::vector<int> n;
      n.reserve(card.nodes.size());
      for (const auto& name : card.nodes)
        n.push_back(resolve_node(name, prefix, ports, card.loc));
      // X-card port connections are wiring, not device terminals: the
      // recursion below counts the real terminals behind each port, so a
      // node wired only into a subckt that barely uses it still lints.
      if (card.kind != DeviceCard::Kind::subckt)
        for (int node : n) touch(node);

      // sim::Circuit rejects bad element values (R <= 0, C < 0, ...) with
      // std::invalid_argument; locate them at the card.
      try {
        switch (card.kind) {
          case DeviceCard::Kind::resistor:
            out_.circuit.add_resistor(n[0], n[1], eval_expr(*card.value, env));
            break;
          case DeviceCard::Kind::capacitor:
            out_.circuit.add_capacitor(n[0], n[1], eval_expr(*card.value, env));
            break;
          case DeviceCard::Kind::vsource: {
            const sim::Waveform wave = build_waveform(card, env);
            // Omitted DC value with a waveform: the operating point sits at
            // the waveform's t = 0 value (classic SPICE behavior).
            const double dc = card.value != nullptr
                                  ? eval_expr(*card.value, env)
                                  : sim::waveform_value(wave, 0.0, 0.0);
            const double ac = card.ac != nullptr ? eval_expr(*card.ac, env) : 0.0;
            int index = 0;
            try {
              index = out_.circuit.add_vsource(n[0], n[1], dc, ac, wave);
            } catch (const std::invalid_argument& err) {
              throw NetlistError(card.wave_loc, err.what());
            }
            out_.vsources.emplace(prefix + card.name,
                                  static_cast<std::size_t>(index));
            break;
          }
          case DeviceCard::Kind::isource:
            out_.circuit.add_isource(n[0], n[1], eval_expr(*card.value, env));
            break;
          case DeviceCard::Kind::mosfet: {
            const auto model = models_.find(card.model);
            if (model == models_.end())
              throw NetlistError(card.loc, "unknown MOSFET model '" + card.model +
                                               "' (declare it with .model)");
            const double w = eval_expr(*card.param("w"), env);
            const double l = eval_expr(*card.param("l"), env);
            if (!(w > 0.0) || !(l > 0.0))
              throw NetlistError(card.loc, "MOSFET w/l must be positive");
            out_.circuit.add_mosfet(n[0], n[1], n[2], w, l, model->second);
            break;
          }
          case DeviceCard::Kind::diode: {
            sim::Diode d;
            if (!card.model.empty()) {
              const auto it = diode_models_.find(card.model);
              if (it == diode_models_.end())
                throw NetlistError(card.loc, "unknown diode model '" +
                                                 card.model +
                                                 "' (declare it with '.model " +
                                                 card.model + " d ...')");
              d = it->second;
            }
            d.a = n[0];
            d.c = n[1];
            if (const auto area = card.param("area"))
              d.area = eval_expr(*area, env);
            out_.circuit.add_diode(d);
            break;
          }
          case DeviceCard::Kind::vccs:
            out_.circuit.add_vccs(n[0], n[1], n[2], n[3],
                                  eval_expr(*card.value, env));
            break;
          case DeviceCard::Kind::subckt: {
            const auto sub = deck_.subckts.find(card.model);
            if (sub == deck_.subckts.end())
              throw NetlistError(card.loc, "unknown subckt '" + card.model + "'");
            const Subckt& def = sub->second;
            for (const auto& seen : stack)
              if (seen == def.name)
                throw NetlistError(card.loc, "cyclic subckt instantiation: '" +
                                                 def.name + "' instantiates itself");
            if (card.nodes.size() != def.ports.size())
              throw NetlistError(card.loc,
                                 "subckt '" + def.name + "' has " +
                                     std::to_string(def.ports.size()) +
                                     " port(s), instance connects " +
                                     std::to_string(card.nodes.size()));
            std::map<std::string, int> sub_ports;
            for (std::size_t i = 0; i < def.ports.size(); ++i)
              sub_ports.emplace(def.ports[i], n[i]);
            // Instance parameters: defaults overridden by the X card, both
            // evaluated in the PARENT scope.
            std::map<std::string, double> sub_params;
            for (const auto& [key, expr] : def.defaults)
              sub_params[key] = eval_expr(*expr, env);
            for (const auto& [key, expr] : card.params) {
              if (sub_params.count(key) == 0)
                throw NetlistError(expr->loc,
                                   "subckt '" + def.name +
                                       "' has no parameter '" + key + "'");
              sub_params[key] = eval_expr(*expr, env);
            }
            Scope sub_scope{&sub_params, &bindings_};
            stack.push_back(def.name);
            flatten(def.cards, prefix + card.name + ".", sub_ports, &sub_scope,
                    stack);
            stack.pop_back();
            break;
          }
        }
      } catch (const std::invalid_argument& err) {
        throw NetlistError(card.loc, err.what());
      }
    }
  }

  void structural_lint() const {
    if (!grounded_)
      throw NetlistError({deck_.file, 0, 0},
                         "netlist has no ground connection (node '0' or 'gnd')");
    for (std::size_t node = 1; node < touches_.size(); ++node) {
      if (touches_[node] < 2)
        throw NetlistError(node_loc_[node],
                           "dangling node '" + out_.circuit.node_name(
                                                   static_cast<int>(node)) +
                               "' (connected to only one device terminal)");
    }
  }

  const Deck& deck_;
  const ckt::Pdk& pdk_;
  const Scope& bindings_;
  Elaboration out_;
  std::unordered_map<std::string, sim::MosModel> models_;
  std::unordered_map<std::string, sim::Diode> diode_models_;
  std::vector<int> touches_;        ///< per-node terminal count
  std::vector<SourceLoc> node_loc_; ///< per-node first-use location
  bool grounded_ = false;
};

}  // namespace

Elaboration elaborate(const Deck& deck, const ckt::Pdk& pdk, const Scope& bindings) {
  KATO_OBS_SPAN("elaborate");
  return Elaborator(deck, pdk, bindings).run();
}

void apply_mos_mismatch(sim::Circuit& ckt, std::size_t sample,
                        double vth_sigma, double beta_sigma) {
  // One stream per sample, salted so sample 0 does not collide with other
  // seed-0 consumers.  Both normals are always consumed so that setting one
  // sigma to zero leaves the other sigma's draws unchanged.
  util::Rng rng(0x6d634d49534dULL + static_cast<std::uint64_t>(sample));
  for (sim::MosInstance& m : ckt.mosfets()) {
    const double zv = rng.normal();
    const double zb = rng.normal();
    m.model.vth0 += vth_sigma * zv;
    m.model.kp *= std::max(0.05, 1.0 + beta_sigma * zb);
  }
}

}  // namespace kato::net
