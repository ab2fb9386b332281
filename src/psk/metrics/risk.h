#ifndef PSK_METRICS_RISK_H_
#define PSK_METRICS_RISK_H_

#include <cstddef>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/release_groups.h"
#include "psk/table/table.h"

namespace psk {

/// Re-identification risk under the three standard intruder models of the
/// statistical-disclosure-control literature (cf. Truta, Fotouhi &
/// Barth-Jones 2003 — reference [24] of the paper — and the mu-Argus
/// models):
///
///  - prosecutor: the intruder knows the target IS in the released table;
///    the per-record risk is 1 / |group|.
///  - journalist: the intruder only knows the target is in a wider
///    population table; per-record risk is 1 / |population group|.
///  - marketer: the intruder wants to re-identify as many records as
///    possible; the risk is the expected fraction of correct matches.
struct RiskSummary {
  /// Highest per-record risk (the weakest record).
  double max_risk = 0.0;
  /// Mean per-record risk.
  double avg_risk = 0.0;
  /// Fraction of records whose risk exceeds `threshold` (parameter of the
  /// *AtRisk functions; 0.5 by convention elsewhere).
  double fraction_at_risk = 0.0;
};

/// Prosecutor model on a released table: risk of record t is
/// 1 / |QI-group(t)|. `threshold` bounds the acceptable per-record risk
/// for fraction_at_risk (e.g. 0.2 means "groups smaller than 5").
Result<RiskSummary> ProsecutorRisk(const Table& masked,
                                   const std::vector<size_t>& key_indices,
                                   double threshold = 0.2);

/// Journalist model: per-record risk is measured against the QI-group
/// sizes in `population`, a table with the same key attribute values
/// (e.g. the initial microdata before sampling, or a census frame). A
/// released record whose key combination is missing from the population
/// is impossible to re-identify through it and gets risk 0.
///
/// `masked_key_indices` and `population_key_indices` select the same
/// conceptual attributes in each table (they may sit at different column
/// positions).
Result<RiskSummary> JournalistRisk(
    const Table& masked, const std::vector<size_t>& masked_key_indices,
    const Table& population,
    const std::vector<size_t>& population_key_indices,
    double threshold = 0.2);

/// Marketer model: expected fraction of records an intruder matching
/// uniformly at random within groups re-identifies — #groups / n.
Result<double> MarketerRisk(const Table& masked,
                            const std::vector<size_t>& key_indices);

/// MarketerRisk of a release read off its group index.
double MarketerRisk(const ReleaseGroups& groups);

}  // namespace psk

#endif  // PSK_METRICS_RISK_H_
