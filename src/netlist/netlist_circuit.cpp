#include "netlist/netlist_circuit.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <set>
#include <stdexcept>

#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

namespace kato::ckt {

namespace {

/// Thrown by measure guards (isupply/avg_power <= 0) to report the
/// candidate as a failed simulation; evaluate() converts it to nullopt.
struct SimFailure : std::exception {
  explicit SimFailure(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }
  std::string what_;
};

struct MeasureInfo {
  std::size_t n_args;
  bool needs_ac;
  bool needs_tran;
  bool vsource_arg;     ///< arg 0 names a voltage source instead of a node
  bool second_node_arg; ///< arg 1 also names a node (prop_delay)
};

const std::map<std::string, MeasureInfo>& measure_table() {
  static const std::map<std::string, MeasureInfo> table = {
      {"isupply", {1, false, false, true, false}},
      {"ivsrc", {1, false, false, true, false}},
      {"vdc", {1, false, false, false, false}},
      {"gain_db", {1, true, false, false, false}},
      {"ugf", {1, true, false, false, false}},
      {"pm", {1, true, false, false, false}},
      {"gain_db_at", {2, true, false, false, false}},
      {"slew_rate", {1, false, true, false, false}},
      {"settling_time", {2, false, true, false, false}},
      {"overshoot", {1, false, true, false, false}},
      {"prop_delay", {2, false, true, false, true}},
      {"avg_power", {1, false, true, true, false}},
      {"value_at", {2, false, true, false, false}},
      {"vmax", {1, false, true, false, false}},
      {"vmin", {1, false, true, false, false}},
  };
  return table;
}

const MeasureInfo* measure_info(const std::string& name) {
  const auto& table = measure_table();
  const auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

/// "isupply ivsrc vdc ..." — the supported set, for diagnostics.
std::string supported_measures() {
  std::string out;
  for (const auto& entry : measure_table()) {
    if (!out.empty()) out += ' ';
    out += entry.first;
  }
  return out;
}

bool is_math_fn(const std::string& name) {
  static const std::set<std::string> fns = {"sqrt", "abs", "exp", "log",
                                            "pow",  "min", "max", "cond"};
  return fns.count(name) != 0;
}

/// Resolve a measure's argument `arg` against the elaborated circuit.
/// Numeric node names ("0", "1a") parse as number expressions; their name
/// field carries the raw spelling, so both kinds resolve here.
template <typename Map>
typename Map::mapped_type resolve_target(const net::Expr& call, const Map& map,
                                         const char* what,
                                         std::size_t arg = 0) {
  static const char* const positions[] = {"first", "second"};
  const bool named =
      call.args.size() > arg &&
      (call.args[arg]->kind == net::Expr::Kind::ident ||
       (call.args[arg]->kind == net::Expr::Kind::number &&
        !call.args[arg]->name.empty()));
  if (!named)
    throw net::NetlistError(call.loc, "'" + call.name + "' expects a " + what +
                                          " name as its " +
                                          positions[arg == 0 ? 0 : 1] +
                                          " argument");
  const auto it = map.find(call.args[arg]->name);
  if (it == map.end())
    throw net::NetlistError(call.args[arg]->loc,
                            std::string("unknown ") + what + " '" +
                                call.args[arg]->raw + "' in measure");
  return it->second;
}

/// Analyses a deck's measure expressions require, with the call site that
/// first demanded each (anchor for the missing-.ac / missing-.tran
/// diagnostics).
struct MeasureNeeds {
  bool ac = false;
  net::SourceLoc ac_loc;
  bool tran = false;
  net::SourceLoc tran_loc;
};

/// Compile-time-style validation of a measure expression: known functions,
/// right arity, arguments naming real nodes / voltage sources.  Flags
/// which analyses (AC sweep, transient run) are needed.
void validate_measure(const net::Expr& e, const net::Elaboration& elab,
                      const net::Scope& scope, MeasureNeeds& needs) {
  switch (e.kind) {
    case net::Expr::Kind::number:
      return;
    case net::Expr::Kind::ident:
      net::eval_expr(e, scope);  // throws on undefined names
      return;
    case net::Expr::Kind::negate:
    case net::Expr::Kind::binary:
      for (const auto& a : e.args) validate_measure(*a, elab, scope, needs);
      return;
    case net::Expr::Kind::call: {
      if (const MeasureInfo* info = measure_info(e.name)) {
        if (e.args.size() != info->n_args)
          throw net::NetlistError(e.loc, "'" + e.name + "' expects " +
                                             std::to_string(info->n_args) +
                                             " argument(s)");
        if (info->vsource_arg)
          resolve_target(e, elab.vsources, "voltage source");
        else
          resolve_target(e, elab.nodes, "node");
        if (info->needs_ac && !needs.ac) {
          needs.ac = true;
          needs.ac_loc = e.loc;
        }
        if (info->needs_tran && !needs.tran) {
          needs.tran = true;
          needs.tran_loc = e.loc;
        }
        if (info->second_node_arg) {
          resolve_target(e, elab.nodes, "node", 1);
          return;  // both arguments are names, nothing left to walk
        }
        for (std::size_t i = 1; i < e.args.size(); ++i)
          validate_measure(*e.args[i], elab, scope, needs);
        return;
      }
      if (is_math_fn(e.name)) {
        for (const auto& a : e.args) validate_measure(*a, elab, scope, needs);
        return;
      }
      throw net::NetlistError(e.loc, "unknown measure function '" + e.name +
                                         "' (supported: " +
                                         supported_measures() + ")");
    }
  }
}

/// Measure-function evaluation against one simulated candidate.
class SimMeasure final : public net::MeasureHook {
 public:
  SimMeasure(const net::Elaboration& elab, const sim::DcResult& op,
             const sim::AcSweep* sweep, const sim::TranResult* tran,
             const net::Scope& scope)
      : elab_(elab), op_(op), sweep_(sweep), tran_(tran), scope_(scope) {}

  double call(const net::Expr& e) const override {
    if (e.name == "isupply") {
      // Branch current is positive p -> n through the source, so a supply
      // delivering current has a negative branch current; flip the sign and
      // require delivery (matches the hand-written OpAmp benchmarks).
      const double i = -op_.vsource_current[resolve_target(e, elab_.vsources,
                                                           "voltage source")];
      if (!(i > 0.0)) throw SimFailure("isupply(" + e.args[0]->raw +
                                       ") <= 0: supply delivers no current");
      return i;
    }
    if (e.name == "ivsrc")
      return op_.vsource_current[resolve_target(e, elab_.vsources,
                                                "voltage source")];
    if (e.name == "avg_power") {
      // Same delivery guard as isupply: a supply that absorbs (or passes
      // no) average power marks the candidate as a failed simulation.
      const double p = sim::tran_avg_power(
          *tran_, elab_.circuit,
          resolve_target(e, elab_.vsources, "voltage source"));
      if (!(p > 0.0)) throw SimFailure("avg_power(" + e.args[0]->raw +
                                       ") <= 0: supply delivers no power");
      return p;
    }
    if (e.name == "vdc")
      return op_.v(resolve_target(e, elab_.nodes, "node"));
    const int node = resolve_target(e, elab_.nodes, "node");
    if (e.name == "gain_db") return sim::dc_gain_db(*sweep_, node);
    if (e.name == "ugf") return sim::unity_gain_freq(*sweep_, node);
    if (e.name == "pm") return sim::stable_phase_margin_deg(*sweep_, node);
    if (e.name == "gain_db_at")
      return sim::gain_db_at(*sweep_, node,
                             net::eval_expr(*e.args[1], scope_, this));
    if (e.name == "slew_rate") return sim::tran_slew_rate(*tran_, node);
    if (e.name == "settling_time")
      return sim::tran_settling_time(*tran_, node,
                                     net::eval_expr(*e.args[1], scope_, this));
    if (e.name == "overshoot") return sim::tran_overshoot(*tran_, node);
    if (e.name == "prop_delay")
      return sim::tran_prop_delay(*tran_, node,
                                  resolve_target(e, elab_.nodes, "node", 1));
    if (e.name == "value_at")
      return sim::tran_value_at(*tran_, node,
                                net::eval_expr(*e.args[1], scope_, this));
    if (e.name == "vmax") return sim::tran_vmax(*tran_, node);
    // vmin — validated at construction, the only remaining case.
    return sim::tran_vmin(*tran_, node);
  }

 private:
  const net::Elaboration& elab_;
  const sim::DcResult& op_;
  const sim::AcSweep* sweep_;
  const sim::TranResult* tran_;
  const net::Scope& scope_;
};

}  // namespace

NetlistCircuit::NetlistCircuit(net::Deck deck, const Pdk& pdk)
    : deck_(std::move(deck)), pdk_(pdk) {
  consts_ = net::pdk_builtins(pdk_);
  const net::Scope const_scope{&consts_, nullptr};

  for (const auto& p : deck_.params) {
    if (consts_.count(p.name) != 0)
      throw net::NetlistError(p.loc, ".param '" + p.name +
                                         "' redefines a builtin parameter");
    consts_[p.name] = net::eval_expr(*p.value, const_scope);
  }

  for (const auto& v : deck_.vars) {
    if (consts_.count(v.name) != 0)
      throw net::NetlistError(v.loc, "sizing variable '" + v.raw +
                                         "' collides with a parameter");
    const double lo = net::eval_expr(*v.lo, const_scope);
    const double hi = net::eval_expr(*v.hi, const_scope);
    try {
      space_.add(v.raw, lo, hi, v.log_scale);
    } catch (const std::invalid_argument& err) {
      throw net::NetlistError(v.loc, err.what());
    }
  }
  if (space_.dim() == 0)
    throw net::NetlistError({deck_.file, 0, 0},
                            "deck declares no .var sizing variables");

  bool have_objective = false;
  for (const auto& spec : deck_.specs) {
    if (spec.is_objective) {
      objective_ = spec;
      have_objective = true;
    } else {
      const double bound = net::eval_expr(*spec.bound, const_scope);
      specs_.push_back({spec.name, spec.unit, bound, spec.is_lower_bound});
      spec_measures_.push_back(spec.measure);
    }
  }
  if (!have_objective)
    throw net::NetlistError({deck_.file, 0, 0},
                            "deck declares no '.spec objective' line");

  expert_.assign(space_.dim(), 0.5);
  bool exact_expert = false;
  for (const auto& e : deck_.experts) {
    const bool exact = e.filter == pdk_.name;
    if (!exact && e.filter != "*") continue;
    if (e.unit_x.size() != space_.dim())
      throw net::NetlistError(e.loc, ".expert has " +
                                         std::to_string(e.unit_x.size()) +
                                         " value(s) but the deck declares " +
                                         std::to_string(space_.dim()) +
                                         " sizing variables");
    if (exact || !exact_expert) expert_ = e.unit_x;
    exact_expert = exact_expert || exact;
  }

  // Resolve .corner cards into per-corner constant tables.  Override
  // expressions are evaluated against the *nominal* table; the corner table
  // then starts from the (possibly vdd-scaled / overridden) builtins and
  // re-derives every .param in deck order, so parameters defined in terms
  // of vdd track the supply spread.  Explicit .param overrides win over the
  // re-derivation.
  has_corner_cards_ = !deck_.corners.empty();
  if (!has_corner_cards_) {
    corners_.push_back({"nominal", "nominal", std::nullopt, consts_});
  } else {
    for (const auto& c : deck_.corners) {
      CornerSetup setup;
      setup.name = c.name;
      setup.raw = c.raw;
      std::map<std::string, double> builtins = net::pdk_builtins(pdk_);
      std::map<std::string, double> overrides;
      for (const auto& [key, expr] : c.params) {
        const double val = net::eval_expr(*expr, const_scope);
        if (key == "temp") {
          const std::string why = net::temperature_problem(val, pdk_);
          if (!why.empty())
            throw net::NetlistError(c.loc,
                                    ".corner '" + c.raw + "': temp " + why);
          setup.temp = val;
        } else if (key == "vdd_scale") {
          if (!(val > 0.0))
            throw net::NetlistError(c.loc, ".corner '" + c.raw +
                                               "': vdd_scale must be > 0");
          builtins["vdd"] *= val;
        } else if (builtins.count(key) != 0) {
          builtins[key] = val;
        } else if (std::any_of(deck_.params.begin(), deck_.params.end(),
                               [&](const net::ParamDef& p) {
                                 return p.name == key;
                               })) {
          overrides[key] = val;
        } else {
          throw net::NetlistError(c.loc, ".corner '" + c.raw +
                                             "' overrides unknown parameter '" +
                                             key +
                                             "' (no such .param or builtin)");
        }
      }
      setup.consts = std::move(builtins);
      const net::Scope corner_scope{&setup.consts, nullptr};
      for (const auto& p : deck_.params) {
        const auto ov = overrides.find(p.name);
        setup.consts[p.name] = ov != overrides.end()
                                   ? ov->second
                                   : net::eval_expr(*p.value, corner_scope);
      }
      corners_.push_back(std::move(setup));
    }
  }

  if (deck_.mc.present) {
    const double k = net::eval_expr(*deck_.mc.samples, const_scope);
    if (!(k >= 1.0) || k > 4096.0 || k != std::floor(k))
      throw net::NetlistError(deck_.mc.loc,
                              ".mc sample count must be an integer in "
                              "[1, 4096]");
    mc_samples_ = static_cast<std::size_t>(k);
    for (const auto& [key, expr] : deck_.mc.params) {
      const double val = net::eval_expr(*expr, const_scope);
      if (key == "vth_sigma") {
        if (!(val >= 0.0))
          throw net::NetlistError(deck_.mc.loc, ".mc vth_sigma must be >= 0");
        vth_sigma_ = val;
      } else if (key == "beta_sigma") {
        if (!(val >= 0.0))
          throw net::NetlistError(deck_.mc.loc, ".mc beta_sigma must be >= 0");
        beta_sigma_ = val;
      } else if (key == "quantile") {
        if (!(val > 0.0 && val <= 1.0))
          throw net::NetlistError(deck_.mc.loc,
                                  ".mc quantile must be in (0, 1]");
        mc_quantile_ = val;
      } else {
        throw net::NetlistError(deck_.mc.loc,
                                ".mc: unknown key '" + key +
                                    "' (supported: vth_sigma beta_sigma "
                                    "quantile)");
      }
    }
  }

  // Trial elaboration at the expert/mid-box point: surfaces structural
  // problems (dangling nodes, cyclic subckts, unknown models) and
  // expression errors at load time.
  const net::Elaboration trial = elaborate(expert_);
  const auto trial_vars = bind_vars(expert_);
  const net::Scope trial_scope{&trial_vars, &const_scope};
  MeasureNeeds needs;
  validate_measure(*objective_.measure, trial, trial_scope, needs);
  for (const auto& m : spec_measures_)
    validate_measure(*m, trial, trial_scope, needs);
  needs_ac_ = needs.ac;
  needs_tran_ = needs.tran;

  // A MOS .model n= override sets the device-table resolution, which must
  // fit the cell cap at every temperature the deck simulates: checked here
  // so the error points at the card instead of failing every evaluation.
  for (const auto& def : deck_.models) {
    if (def.diode) continue;
    for (const auto& [key, expr] : def.overrides) {
      if (key != "n") continue;
      const double n = net::eval_expr(*expr, trial_scope);
      for (const auto& c : corners_) {
        const std::string why = net::subthreshold_n_problem(
            n, c.temp.value_or(trial.temperature));
        if (!why.empty())
          throw net::NetlistError(expr->loc,
                                  ".model '" + def.name + "': n " + why);
      }
    }
  }
  if (needs_ac_ && !deck_.ac.present)
    throw net::NetlistError(needs.ac_loc,
                            "AC measure used but the deck has no "
                            "'.ac dec <pts> <f_lo> <f_hi>' line");
  if (needs_tran_ && !deck_.tran.present)
    throw net::NetlistError(needs.tran_loc,
                            "transient measure used but the deck has no "
                            "'.tran <tstep> <tstop>' line");
}

std::unique_ptr<NetlistCircuit> NetlistCircuit::from_file(const std::string& path,
                                                          const Pdk& pdk) {
  return std::make_unique<NetlistCircuit>(net::parse_netlist_file(path), pdk);
}

std::map<std::string, double> NetlistCircuit::bind_vars(
    const std::vector<double>& unit_x) const {
  const auto physical = space_.to_physical(unit_x);
  std::map<std::string, double> vars;
  for (std::size_t i = 0; i < deck_.vars.size(); ++i)
    vars.emplace(deck_.vars[i].name, physical[i]);
  return vars;
}

net::Elaboration NetlistCircuit::elaborate(
    const std::vector<double>& unit_x) const {
  const auto vars = bind_vars(unit_x);
  const net::Scope const_scope{&consts_, nullptr};
  const net::Scope env{&vars, &const_scope};
  return net::elaborate(deck_, pdk_, env);
}

std::optional<std::vector<double>> NetlistCircuit::evaluate(
    const std::vector<double>& unit_x) const {
  return evaluate_detailed(unit_x).metrics;
}

std::vector<std::optional<std::vector<double>>> NetlistCircuit::evaluate_batch(
    const std::vector<std::vector<double>>& xs) const {
  const std::size_t fan = corners_.size() * mc_samples_;
  if (fan == 1) return SizingCircuit::evaluate_batch(xs);
  KATO_OBS_SPAN("evaluate_batch");
  // Corner/MC fan-out: flatten candidates x conditions into one slot list
  // so even a small batch fills the pool.  Slot s is a pure function of
  // (candidate s/fan, corner, sample) and writes only its own entry, so any
  // chunking stays bit-identical; aggregation runs serially afterwards and
  // matches the serial evaluate_detailed() loop exactly.
  std::vector<std::optional<std::vector<double>>> conds(xs.size() * fan);
  util::parallel_for(conds.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t i = s / fan;
      const std::size_t c = (s % fan) / mc_samples_;
      const std::size_t k = s % mc_samples_;
      try {
        conds[s] = evaluate_single(xs[i], c, k).metrics;
      } catch (...) {
        conds[s] = std::nullopt;  // same backstop as the base per-slot loop
      }
    }
  });
  std::vector<std::optional<std::vector<double>>> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::vector<std::optional<std::vector<double>>> sub(
        conds.begin() + static_cast<std::ptrdiff_t>(i * fan),
        conds.begin() + static_cast<std::ptrdiff_t>((i + 1) * fan));
    out[i] = aggregate(sub);
  }
  return out;
}

NetlistCircuit::EvalOutcome NetlistCircuit::evaluate_detailed(
    const std::vector<double>& unit_x) const {
  if (!has_corner_cards_ && !deck_.mc.present)
    return evaluate_single(unit_x, 0, 0);

  std::vector<std::optional<std::vector<double>>> conds;
  conds.reserve(corners_.size() * mc_samples_);
  EvalOutcome out;  // accumulates stats across every condition simulated
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    for (std::size_t k = 0; k < mc_samples_; ++k) {
      EvalOutcome one = evaluate_single(unit_x, c, k);
      out.stats.merge(one.stats);
      if (!one.metrics) {
        std::string where;
        if (has_corner_cards_) where += "corner '" + corners_[c].raw + "'";
        if (deck_.mc.present) {
          if (!where.empty()) where += ", ";
          where += "mc sample " + std::to_string(k);
        }
        out.failure = where + ": " + one.failure;
        return out;
      }
      conds.push_back(std::move(one.metrics));
    }
  }
  out.metrics = aggregate(conds);
  return out;
}

std::optional<std::vector<double>> NetlistCircuit::aggregate(
    const std::vector<std::optional<std::vector<double>>>& conds) const {
  for (const auto& c : conds)
    if (!c) return std::nullopt;
  const std::size_t n_metrics = 1 + specs_.size();
  const std::size_t k = mc_samples_;
  // Adverse order statistic: rank r = ceil(q K) counted from the adverse
  // end, no interpolation — with q = 1 this is the worst sample, with
  // q = 0.875 and K = 8 the second-worst.  Exactness keeps golden tests
  // hand-computable and the aggregate bit-identical across eval paths.
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(mc_quantile_ * static_cast<double>(k))),
      1, k);
  std::vector<double> out(n_metrics);
  std::vector<double> samples(k);
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const bool smaller = smaller_better(m);
    double worst = 0.0;
    for (std::size_t c = 0; c < corners_.size(); ++c) {
      for (std::size_t s = 0; s < k; ++s)
        samples[s] = (*conds[c * k + s])[m];
      std::sort(samples.begin(), samples.end());
      const double q = smaller ? samples[rank - 1] : samples[k - rank];
      worst = c == 0 ? q : (smaller ? std::max(worst, q) : std::min(worst, q));
    }
    out[m] = worst;
  }
  return out;
}

NetlistCircuit::EvalOutcome NetlistCircuit::evaluate_single(
    const std::vector<double>& unit_x, std::size_t corner,
    std::size_t sample) const {
  KATO_OBS_SPAN("evaluate_single");
  KATO_OBS_STAGE(eval);
  EvalOutcome out;
  // Single registry capture point for the whole stack: every public eval
  // path (evaluate / evaluate_detailed / evaluate_batch) funnels through
  // here, so the process-wide counters see exactly one record per simulated
  // condition — including early failure returns and SimFailure unwinds.
  struct Recorder {
    const EvalOutcome& out;
    ~Recorder() {
      obs::record_sim(out.stats);
      obs::bo_count(obs::BoCounter::evals);
      if (!out.metrics) obs::bo_count(obs::BoCounter::eval_failures);
    }
  } recorder{out};

  // Per-candidate wall-clock budget: armed for this thread only; the Newton
  // and timestep loops poll it cooperatively and bail with a tagged reason.
  const util::EvalDeadline deadline_guard(util::eval_deadline_ms());
  try {
    if (util::fault_fires(util::FaultSite::eval_slow)) {
      // Stall just past the armed budget so the deadline machinery — not
      // the sleep itself — decides this candidate's fate.
      const std::uint64_t budget = util::eval_deadline_ms();
      util::fault_sleep_ms(budget > 0 ? budget + 5 : 10);
    }
    if (util::fault_fires(util::FaultSite::eval_throw))
      throw std::runtime_error("injected fault eval:throw");

    const auto vars = bind_vars(unit_x);
    const CornerSetup& cs = corners_[corner];
    const net::Scope const_scope{&cs.consts, nullptr};
    const net::Scope env{&vars, &const_scope};
    net::Elaboration elab = net::elaborate(deck_, pdk_, env);
    if (deck_.mc.present)
      net::apply_mos_mismatch(elab.circuit, sample, vth_sigma_, beta_sigma_);
    const double temperature = cs.temp.value_or(elab.temperature);

    sim::DcOptions dc_opts;
    dc_opts.temp = temperature;
    dc_opts.device_eval = device_eval_;
    const auto op = sim::solve_dc(elab.circuit, dc_opts);
    out.stats.merge(op.stats);
    if (!op.converged) {
      obs::bo_count(obs::BoCounter::fail_dc);
      out.failure = "DC operating point failed: " +
                    (op.reason.empty() ? "did not converge" : op.reason);
      return out;
    }

    sim::AcSweep sweep;
    if (needs_ac_) {
      sweep = sim::solve_ac(elab.circuit, op, elab.freqs);
      out.stats.merge(sweep.stats);
      if (!sweep.ok) {
        obs::bo_count(obs::BoCounter::fail_ac);
        out.failure = "AC sweep failed (singular linearized system) after " +
                      std::to_string(sweep.stats.ac_points) + "/" +
                      std::to_string(elab.freqs.size()) + " frequency points";
        return out;
      }
    }

    sim::TranResult tran;
    if (needs_tran_) {
      sim::TranOptions topts;
      topts.tstep = elab.tran.tstep;
      topts.tstop = elab.tran.tstop;
      topts.fixed_step = elab.tran.fixed_step;
      topts.backward_euler = elab.tran.backward_euler;
      topts.temp = temperature;
      topts.device_eval = device_eval_;
      topts.initial_conditions = elab.tran.ics;
      tran = sim::solve_tran(elab.circuit, topts, &op);
      out.stats.merge(tran.stats);
      if (!tran.ok) {
        obs::bo_count(obs::BoCounter::fail_tran);
        out.failure = "transient analysis failed: " + tran.reason;
        return out;
      }
    }

    KATO_OBS_SPAN("measures");
    const SimMeasure hook(elab, op, needs_ac_ ? &sweep : nullptr,
                          needs_tran_ ? &tran : nullptr, env);
    try {
      std::vector<double> metrics;
      metrics.reserve(1 + specs_.size());
      metrics.push_back(net::eval_expr(*objective_.measure, env, &hook));
      for (const auto& m : spec_measures_)
        metrics.push_back(net::eval_expr(*m, env, &hook));
      out.metrics = std::move(metrics);
    } catch (const SimFailure& failure) {
      obs::bo_count(obs::BoCounter::fail_measure);
      out.failure = failure.what();
    }
    return out;
  } catch (const std::exception& e) {
    // Anything thrown past the stage handlers above (elaboration errors,
    // injected eval:throw, allocation failures in a pathological deck)
    // becomes a per-candidate failure outcome instead of escaping into —
    // and killing — a batch evaluation.
    out.metrics.reset();
    out.failure = e.what();
    return out;
  }
}

}  // namespace kato::ckt
