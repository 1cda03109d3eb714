// The paper's ILP formulation, equations (3)-(17), built verbatim.
//
// One 0-1 variable per (copy, cycle, vendor, instance) — the paper's
// D/D'/R_{i,l,k,m} — plus the usage indicators epsilon(k,t,m) and
// delta(k,t). Detection copies range over the detection phase's cycles and
// recovery copies over the recovery phase's; with the phase boundary fixed
// this way, the paper's ordering constraints (14)-(15) hold structurally
// (the optimizer explores boundary placements by re-solving per split, see
// SynthesisEngine::minimize_total_latency).
//
// This path exists for fidelity and cross-checking: the CSP optimizer is
// the practical engine, and tests assert both report the same minimum cost
// on small instances. Like the paper's Lingo runs, the branch & bound may
// time out on the big benchmarks ('*' results).
#pragma once

#include "core/optimizer.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/model.hpp"

namespace ht::core {

/// The lowered model together with the variable maps needed to decode a
/// solver assignment back into a Solution.
class IlpFormulation {
 public:
  explicit IlpFormulation(const ProblemSpec& spec);

  const ilp::Model& model() const { return model_; }

  /// Variable index of H_{i,l,k,m} for the given copy kind; -1 when the
  /// combination is not represented (vendor lacks the class, cycle outside
  /// the phase window, ...).
  int schedule_var(CopyKind kind, dfg::OpId op, int cycle,
                   vendor::VendorId vendor, int instance) const;

  int epsilon_var(vendor::VendorId vendor, dfg::ResourceClass rc,
                  int instance) const;
  int delta_var(vendor::VendorId vendor, dfg::ResourceClass rc) const;

  /// Rebuilds a Solution from a feasible assignment of `model()`.
  Solution decode(const std::vector<double>& values) const;

 private:
  void create_variables();
  void add_constraints();

  const ProblemSpec& spec_;
  ilp::Model model_;

  int num_ops_ = 0;
  std::vector<CopyKind> kinds_;
  // schedule_index_[kind][op][cycle-1][vendor][instance] flattened via maps.
  std::vector<int> schedule_index_;
  std::vector<int> epsilon_index_;
  std::vector<int> delta_index_;
  int lambda_of(CopyKind kind) const;
  int cap_of(dfg::ResourceClass rc) const;
  std::size_t schedule_slot(CopyKind kind, dfg::OpId op, int cycle,
                            vendor::VendorId vendor, int instance) const;
  int max_lambda_ = 0;
  int max_cap_ = 0;
};

/// Solves the full formulation with branch & bound and returns the same
/// result type as the CSP-based optimizer.
OptimizeResult minimize_cost_ilp(const ProblemSpec& spec,
                                 const ilp::BnbOptions& options = {});

/// Warm-started variant: uses `warm` (a valid solution for `spec`) as the
/// initial upper bound so the branch & bound only has to find something
/// strictly better or prove nothing better exists. Returns `warm` marked
/// kOptimal when the search exhausts without an improvement, the improved
/// design when one is found, or `warm` marked kFeasible when the budget
/// runs out first.
OptimizeResult minimize_cost_ilp_warm(const ProblemSpec& spec,
                                      const Solution& warm,
                                      const ilp::BnbOptions& options = {});

}  // namespace ht::core
