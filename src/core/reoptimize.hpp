// Post-detection quarantine and re-synthesis.
//
// The paper's recovery keeps the mission alive on the re-bound schedule
// "until [the infected ICs] can be replaced". This module is the
// replacement-planning half of that story: after a run-time detection the
// operator knows the Trojan lives in one of the licenses used by the
// corrupted computation; this narrows the market, and the design is
// re-synthesized with the suspect licenses banned — producing the design
// to program into the next maintenance window.
#pragma once

#include <optional>
#include <set>

#include "core/optimizer.hpp"

namespace ht::core {

/// Licenses used by the detection phase of `solution`. When `side` names
/// one computation (diagnosis available — see trojan::diagnose_corrupted
/// side), only that computation's licenses are suspects; otherwise every
/// detection-phase license is.
std::set<LicenseKey> suspect_licenses(const ProblemSpec& spec,
                                      const Solution& solution,
                                      std::optional<CopyKind> side);

/// Copy of `catalog` with the `banned` (vendor, class) offers removed.
/// Vendors left with no offers remain in the catalog (they just sell
/// nothing relevant).
vendor::Catalog without_licenses(const vendor::Catalog& catalog,
                                 const std::set<LicenseKey>& banned);

}  // namespace ht::core
