#include "core/ilp_formulation.hpp"

#include <algorithm>

#include "core/rules.hpp"
#include "lp/lp_problem.hpp"
#include "dfg/analysis.hpp"
#include "util/timer.hpp"

namespace ht::core {

namespace {
dfg::ResourceClass class_of(const ProblemSpec& spec, dfg::OpId op) {
  return dfg::resource_class_of(spec.graph.op(op).type);
}
}  // namespace

IlpFormulation::IlpFormulation(const ProblemSpec& spec) : spec_(spec) {
  spec.validate();
  util::check_spec(spec.unit_latency(),
                   "IlpFormulation models the paper's single-cycle units; "
                   "use the CSP optimizer for multi-cycle latencies");
  num_ops_ = spec.graph.num_ops();
  kinds_ = {CopyKind::kNormal, CopyKind::kRedundant};
  if (spec.with_recovery) kinds_.push_back(CopyKind::kRecovery);
  max_lambda_ = std::max(spec.lambda_detection,
                         spec.with_recovery ? spec.lambda_recovery : 0);
  max_cap_ = 0;
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    max_cap_ = std::max(
        max_cap_, cap_of(static_cast<dfg::ResourceClass>(cls)));
  }
  create_variables();
  add_constraints();
}

int IlpFormulation::lambda_of(CopyKind kind) const {
  return kind == CopyKind::kRecovery ? spec_.lambda_recovery
                                     : spec_.lambda_detection;
}

int IlpFormulation::cap_of(dfg::ResourceClass rc) const {
  return spec_.instance_cap(rc);
}

std::size_t IlpFormulation::schedule_slot(CopyKind kind, dfg::OpId op,
                                          int cycle, vendor::VendorId vendor,
                                          int instance) const {
  const std::size_t kinds = kNumCopyKinds;
  (void)kinds;
  std::size_t slot = static_cast<std::size_t>(kind);
  slot = slot * static_cast<std::size_t>(num_ops_) +
         static_cast<std::size_t>(op);
  slot = slot * static_cast<std::size_t>(max_lambda_) +
         static_cast<std::size_t>(cycle - 1);
  slot = slot * static_cast<std::size_t>(spec_.catalog.num_vendors()) +
         static_cast<std::size_t>(vendor);
  slot = slot * static_cast<std::size_t>(max_cap_) +
         static_cast<std::size_t>(instance);
  return slot;
}

void IlpFormulation::create_variables() {
  const int nv = spec_.catalog.num_vendors();
  schedule_index_.assign(static_cast<std::size_t>(kNumCopyKinds) *
                             static_cast<std::size_t>(num_ops_) *
                             static_cast<std::size_t>(max_lambda_) *
                             static_cast<std::size_t>(nv) *
                             static_cast<std::size_t>(max_cap_),
                         -1);
  epsilon_index_.assign(static_cast<std::size_t>(nv) *
                            dfg::kNumResourceClasses *
                            static_cast<std::size_t>(max_cap_),
                        -1);
  delta_index_.assign(
      static_cast<std::size_t>(nv) * dfg::kNumResourceClasses, -1);

  // Schedule variables, restricted to each copy's ASAP/ALAP window — a
  // standard HLS-ILP reduction that leaves the model equivalent.
  const std::vector<int> asap = dfg::asap_levels(spec_.graph);
  const std::vector<int> alap_det =
      dfg::alap_levels(spec_.graph, spec_.lambda_detection);
  std::vector<int> alap_rec;
  if (spec_.with_recovery) {
    alap_rec = dfg::alap_levels(spec_.graph, spec_.lambda_recovery);
  }

  for (CopyKind kind : kinds_) {
    for (dfg::OpId op = 0; op < num_ops_; ++op) {
      const dfg::ResourceClass rc = class_of(spec_, op);
      const int lo = asap[static_cast<std::size_t>(op)];
      const int hi = kind == CopyKind::kRecovery
                         ? alap_rec[static_cast<std::size_t>(op)]
                         : alap_det[static_cast<std::size_t>(op)];
      for (int cycle = lo; cycle <= hi; ++cycle) {
        for (vendor::VendorId v = 0; v < nv; ++v) {
          if (!spec_.catalog.offers(v, rc)) continue;
          for (int m = 0; m < cap_of(rc); ++m) {
            const std::string name =
                copy_kind_name(kind) + "_" + std::to_string(op) + "_l" +
                std::to_string(cycle) + "_k" + std::to_string(v) + "_m" +
                std::to_string(m);
            schedule_index_[schedule_slot(kind, op, cycle, v, m)] =
                model_.add_binary(name);
          }
        }
      }
    }
  }

  // epsilon(k,t,m) and delta(k,t), only for classes the DFG uses and
  // vendors that offer them.
  const auto op_counts = spec_.graph.ops_per_class();
  for (vendor::VendorId v = 0; v < nv; ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (op_counts[cls] == 0 || !spec_.catalog.offers(v, rc)) continue;
      for (int m = 0; m < cap_of(rc); ++m) {
        epsilon_index_[(static_cast<std::size_t>(v) *
                            dfg::kNumResourceClasses +
                        static_cast<std::size_t>(cls)) *
                           static_cast<std::size_t>(max_cap_) +
                       static_cast<std::size_t>(m)] =
            model_.add_binary("eps_k" + std::to_string(v) + "_t" +
                              std::to_string(cls) + "_m" + std::to_string(m));
      }
      delta_index_[static_cast<std::size_t>(v) * dfg::kNumResourceClasses +
                   static_cast<std::size_t>(cls)] =
          model_.add_binary(
              "delta_k" + std::to_string(v) + "_t" + std::to_string(cls),
              static_cast<double>(spec_.catalog.offer(v, rc).cost));
    }
  }
}

int IlpFormulation::schedule_var(CopyKind kind, dfg::OpId op, int cycle,
                                 vendor::VendorId vendor,
                                 int instance) const {
  if (cycle < 1 || cycle > max_lambda_ || vendor < 0 ||
      vendor >= spec_.catalog.num_vendors() || instance < 0 ||
      instance >= max_cap_) {
    return -1;
  }
  return schedule_index_[schedule_slot(kind, op, cycle, vendor, instance)];
}

int IlpFormulation::epsilon_var(vendor::VendorId vendor,
                                dfg::ResourceClass rc, int instance) const {
  if (instance < 0 || instance >= max_cap_) return -1;
  return epsilon_index_[(static_cast<std::size_t>(vendor) *
                             dfg::kNumResourceClasses +
                         static_cast<std::size_t>(rc)) *
                            static_cast<std::size_t>(max_cap_) +
                        static_cast<std::size_t>(instance)];
}

int IlpFormulation::delta_var(vendor::VendorId vendor,
                              dfg::ResourceClass rc) const {
  return delta_index_[static_cast<std::size_t>(vendor) *
                          dfg::kNumResourceClasses +
                      static_cast<std::size_t>(rc)];
}

void IlpFormulation::add_constraints() {
  const int nv = spec_.catalog.num_vendors();

  // Helper: all variables of one copy, optionally filtered by vendor.
  auto copy_terms = [&](CopyKind kind, dfg::OpId op, int only_vendor,
                        double weight_by_cycle) {
    std::vector<std::pair<int, double>> terms;
    const dfg::ResourceClass rc = class_of(spec_, op);
    for (int cycle = 1; cycle <= lambda_of(kind); ++cycle) {
      for (vendor::VendorId v = 0; v < nv; ++v) {
        if (only_vendor >= 0 && v != only_vendor) continue;
        for (int m = 0; m < cap_of(rc); ++m) {
          const int var = schedule_var(kind, op, cycle, v, m);
          if (var < 0) continue;
          terms.emplace_back(var,
                             weight_by_cycle != 0.0
                                 ? weight_by_cycle * cycle
                                 : 1.0);
        }
      }
    }
    return terms;
  };

  // (3) every copy scheduled exactly once.
  for (CopyKind kind : kinds_) {
    for (dfg::OpId op = 0; op < num_ops_; ++op) {
      model_.add_constraint(copy_terms(kind, op, -1, 0.0), lp::Relation::kEq,
                            1.0);
    }
  }

  // (4) dependence: start(j) >= start(i) + 1 within each schedule.
  for (const auto& [from, to] : spec_.graph.edges()) {
    for (CopyKind kind : kinds_) {
      std::vector<std::pair<int, double>> terms =
          copy_terms(kind, from, -1, 1.0);
      for (auto& [var, coeff] : copy_terms(kind, to, -1, 1.0)) {
        terms.emplace_back(var, -coeff);
      }
      model_.add_constraint(std::move(terms), lp::Relation::kLe, -1.0);
    }
  }

  // (5)-(10): every vendor-diversity rule, via the shared conflict engine.
  // Each conflict (a, b) lowers to: for every vendor k,
  //   sum_{l,m} H_a(l,k,m) + sum_{l,m} H_b(l,k,m) <= 1.
  for (const VendorConflict& conflict : vendor_conflicts(spec_)) {
    for (vendor::VendorId v = 0; v < nv; ++v) {
      std::vector<std::pair<int, double>> terms =
          copy_terms(conflict.a.kind, conflict.a.op, v, 0.0);
      const auto more = copy_terms(conflict.b.kind, conflict.b.op, v, 0.0);
      terms.insert(terms.end(), more.begin(), more.end());
      if (terms.empty()) continue;
      model_.add_constraint(std::move(terms), lp::Relation::kLe, 1.0);
    }
  }

  const auto op_counts = spec_.graph.ops_per_class();

  // (11)-(12): epsilon/delta indicators; the '>= usage/Z' halves become
  // 'usage <= Z * indicator' with Z = the trivially safe copy count.
  const double big_z =
      static_cast<double>(kNumCopyKinds * num_ops_ * max_lambda_ + 1);
  for (vendor::VendorId v = 0; v < nv; ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (op_counts[cls] == 0 || !spec_.catalog.offers(v, rc)) continue;

      std::vector<std::pair<int, double>> all_usage;
      for (int m = 0; m < cap_of(rc); ++m) {
        const int eps = epsilon_var(v, rc, m);
        std::vector<std::pair<int, double>> usage;
        for (CopyKind kind : kinds_) {
          for (dfg::OpId op = 0; op < num_ops_; ++op) {
            if (class_of(spec_, op) != rc) continue;
            for (int cycle = 1; cycle <= lambda_of(kind); ++cycle) {
              const int var = schedule_var(kind, op, cycle, v, m);
              if (var >= 0) usage.emplace_back(var, 1.0);
            }
          }
        }
        all_usage.insert(all_usage.end(), usage.begin(), usage.end());
        // usage - Z*eps <= 0  (eps = 1 if any use)
        std::vector<std::pair<int, double>> lhs = usage;
        lhs.emplace_back(eps, -big_z);
        model_.add_constraint(std::move(lhs), lp::Relation::kLe, 0.0);
        // eps <= usage  (no phantom instances)
        std::vector<std::pair<int, double>> rhs = usage;
        for (auto& [var, coeff] : rhs) coeff = -coeff;
        rhs.emplace_back(eps, 1.0);
        model_.add_constraint(std::move(rhs), lp::Relation::kLe, 0.0);
        // Symmetry breaking (not in the paper; sound): instances fill in
        // order, eps(m) >= eps(m+1).
        if (m > 0) {
          model_.add_constraint(
              {{eps, 1.0}, {epsilon_var(v, rc, m - 1), -1.0}},
              lp::Relation::kLe, 0.0);
        }
      }
      const int delta = delta_var(v, rc);
      std::vector<std::pair<int, double>> lhs = all_usage;
      lhs.emplace_back(delta, -big_z);
      model_.add_constraint(std::move(lhs), lp::Relation::kLe, 0.0);
      std::vector<std::pair<int, double>> rhs = all_usage;
      for (auto& [var, coeff] : rhs) coeff = -coeff;
      rhs.emplace_back(delta, 1.0);
      model_.add_constraint(std::move(rhs), lp::Relation::kLe, 0.0);
    }
  }

  // (13) area.
  std::vector<std::pair<int, double>> area_terms;
  for (vendor::VendorId v = 0; v < nv; ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (op_counts[cls] == 0 || !spec_.catalog.offers(v, rc)) continue;
      for (int m = 0; m < cap_of(rc); ++m) {
        area_terms.emplace_back(
            epsilon_var(v, rc, m),
            static_cast<double>(spec_.catalog.offer(v, rc).area));
      }
    }
  }
  model_.add_constraint(std::move(area_terms), lp::Relation::kLe,
                        static_cast<double>(spec_.area_limit));

  // (14)-(15) hold structurally: recovery copies live on the recovery
  // phase's timeline, which follows the detection phase by construction.

  // (16) one op per core instance per cycle, per phase timeline.
  for (vendor::VendorId v = 0; v < nv; ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (op_counts[cls] == 0 || !spec_.catalog.offers(v, rc)) continue;
      for (int m = 0; m < cap_of(rc); ++m) {
        for (int cycle = 1; cycle <= spec_.lambda_detection; ++cycle) {
          std::vector<std::pair<int, double>> terms;
          for (CopyKind kind : {CopyKind::kNormal, CopyKind::kRedundant}) {
            for (dfg::OpId op = 0; op < num_ops_; ++op) {
              if (class_of(spec_, op) != rc) continue;
              const int var = schedule_var(kind, op, cycle, v, m);
              if (var >= 0) terms.emplace_back(var, 1.0);
            }
          }
          if (terms.size() > 1) {
            model_.add_constraint(std::move(terms), lp::Relation::kLe, 1.0);
          }
        }
        if (spec_.with_recovery) {
          for (int cycle = 1; cycle <= spec_.lambda_recovery; ++cycle) {
            std::vector<std::pair<int, double>> terms;
            for (dfg::OpId op = 0; op < num_ops_; ++op) {
              if (class_of(spec_, op) != rc) continue;
              const int var =
                  schedule_var(CopyKind::kRecovery, op, cycle, v, m);
              if (var >= 0) terms.emplace_back(var, 1.0);
            }
            if (terms.size() > 1) {
              model_.add_constraint(std::move(terms), lp::Relation::kLe, 1.0);
            }
          }
        }
      }
    }
  }
}

Solution IlpFormulation::decode(const std::vector<double>& values) const {
  util::check_spec(
      static_cast<int>(values.size()) == model_.num_variables(),
      "IlpFormulation::decode: assignment size mismatch");
  Solution solution(num_ops_, spec_.with_recovery);
  for (CopyKind kind : kinds_) {
    for (dfg::OpId op = 0; op < num_ops_; ++op) {
      const dfg::ResourceClass rc = class_of(spec_, op);
      for (int cycle = 1; cycle <= lambda_of(kind); ++cycle) {
        for (vendor::VendorId v = 0; v < spec_.catalog.num_vendors(); ++v) {
          for (int m = 0; m < cap_of(rc); ++m) {
            const int var = schedule_var(kind, op, cycle, v, m);
            if (var >= 0 && values[static_cast<std::size_t>(var)] > 0.5) {
              solution.at(kind, op) = Binding{cycle, v, m};
            }
          }
        }
      }
    }
  }
  return solution;
}

OptimizeResult minimize_cost_ilp(const ProblemSpec& spec,
                                 const ilp::BnbOptions& options) {
  util::Timer timer;
  OptimizeResult result;
  try {
    (void)dfg::alap_levels(spec.graph, spec.lambda_detection);
    if (spec.with_recovery) {
      (void)dfg::alap_levels(spec.graph, spec.lambda_recovery);
    }
  } catch (const util::InfeasibleError&) {
    result.status = OptStatus::kInfeasible;
    result.stats.seconds = timer.elapsed_seconds();
    return result;
  }

  const IlpFormulation formulation(spec);
  const ilp::SolveResult solved =
      ilp::solve_branch_and_bound(formulation.model(), options);
  result.stats.seconds = timer.elapsed_seconds();
  result.stats.csp_nodes = solved.stats.nodes;
  switch (solved.status) {
    case ilp::SolveStatus::kOptimal:
      result.status = OptStatus::kOptimal;
      break;
    case ilp::SolveStatus::kFeasible:
      result.status = OptStatus::kFeasible;
      break;
    case ilp::SolveStatus::kInfeasible:
      result.status = OptStatus::kInfeasible;
      return result;
    case ilp::SolveStatus::kUnknown:
      result.status = OptStatus::kUnknown;
      return result;
  }
  result.solution = formulation.decode(solved.values);
  require_valid(spec, result.solution);
  result.cost = result.solution.license_cost(spec);
  util::check_internal(
      result.cost == static_cast<long long>(solved.objective + 0.5),
      "ILP objective disagrees with decoded license cost");
  return result;
}

OptimizeResult minimize_cost_ilp_warm(const ProblemSpec& spec,
                                      const Solution& warm,
                                      const ilp::BnbOptions& options) {
  require_valid(spec, warm);
  util::Timer timer;
  const long long warm_cost = warm.license_cost(spec);

  const IlpFormulation formulation(spec);
  ilp::BnbOptions bounded = options;
  bounded.initial_upper_bound = static_cast<double>(warm_cost);
  const ilp::SolveResult solved =
      ilp::solve_branch_and_bound(formulation.model(), bounded);

  OptimizeResult result;
  result.stats.seconds = timer.elapsed_seconds();
  result.stats.csp_nodes = solved.stats.nodes;
  switch (solved.status) {
    case ilp::SolveStatus::kOptimal:   // strictly better design found
    case ilp::SolveStatus::kFeasible:
      result.solution = formulation.decode(solved.values);
      require_valid(spec, result.solution);
      result.cost = result.solution.license_cost(spec);
      result.status = solved.status == ilp::SolveStatus::kOptimal
                          ? OptStatus::kOptimal
                          : OptStatus::kFeasible;
      return result;
    case ilp::SolveStatus::kInfeasible:
      // Exhausted under the warm bound: nothing strictly better exists,
      // so the warm solution is proved optimal.
      result.solution = warm;
      result.cost = warm_cost;
      result.status = OptStatus::kOptimal;
      return result;
    case ilp::SolveStatus::kUnknown:
      result.solution = warm;
      result.cost = warm_cost;
      result.status = OptStatus::kFeasible;
      return result;
  }
  throw util::InternalError("minimize_cost_ilp_warm: unreachable");
}

}  // namespace ht::core
