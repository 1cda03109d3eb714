#include "core/reoptimize.hpp"

namespace ht::core {

std::set<LicenseKey> suspect_licenses(const ProblemSpec& spec,
                                      const Solution& solution,
                                      std::optional<CopyKind> side) {
  util::check_spec(!side || *side != CopyKind::kRecovery,
                   "suspect_licenses: the suspect side is a detection-phase "
                   "computation (NC or RC)");
  std::set<LicenseKey> suspects;
  for (CopyKind kind : {CopyKind::kNormal, CopyKind::kRedundant}) {
    if (side && *side != kind) continue;
    for (dfg::OpId op = 0; op < spec.graph.num_ops(); ++op) {
      const Binding& binding = solution.at(kind, op);
      suspects.insert(LicenseKey{
          binding.vendor, dfg::resource_class_of(spec.graph.op(op).type)});
    }
  }
  return suspects;
}

vendor::Catalog without_licenses(const vendor::Catalog& catalog,
                                 const std::set<LicenseKey>& banned) {
  vendor::Catalog thinned(catalog.num_vendors());
  for (vendor::VendorId v = 0; v < catalog.num_vendors(); ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (!catalog.offers(v, rc)) continue;
      if (banned.count(LicenseKey{v, rc})) continue;
      thinned.set_offer(v, rc, catalog.offer(v, rc));
    }
  }
  return thinned;
}

}  // namespace ht::core
