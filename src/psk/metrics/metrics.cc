#include "psk/metrics/metrics.h"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "psk/table/group_by.h"

namespace psk {

Result<uint64_t> DiscernibilityMetric(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t suppressed, size_t total_rows) {
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(masked, key_indices));
  uint64_t dm = 0;
  for (const Group& group : fs.groups()) {
    dm += static_cast<uint64_t>(group.size()) * group.size();
  }
  dm += static_cast<uint64_t>(suppressed) * total_rows;
  return dm;
}

namespace {

// Sum of |G|^2 over the groups of at least `min_size` rows, plus the
// suppressed tuples' share.
uint64_t DiscernibilityOfSizes(const std::vector<uint32_t>& sizes,
                               size_t min_size, size_t suppressed,
                               size_t total_rows) {
  uint64_t dm = 0;
  for (uint32_t size : sizes) {
    if (size >= min_size) dm += static_cast<uint64_t>(size) * size;
  }
  return dm + static_cast<uint64_t>(suppressed) * total_rows;
}

}  // namespace

uint64_t DiscernibilityMetric(const ReleaseGroups& groups, size_t suppressed,
                              size_t total_rows) {
  return DiscernibilityOfSizes(groups.class_sizes(), 0, suppressed,
                               total_rows);
}

Result<uint64_t> EncodedDiscernibility(const EncodedTable& encoded,
                                       const LatticeNode& node, size_t k,
                                       EncodedWorkspace* ws) {
  PSK_RETURN_IF_ERROR(encoded.GroupByNode(node, ws));
  return DiscernibilityOfSizes(ws->groups.group_sizes, k,
                               ws->groups.RowsInGroupsSmallerThan(k),
                               encoded.num_rows());
}

Result<double> NormalizedAvgGroupSize(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(masked, key_indices));
  if (fs.num_groups() == 0) return 0.0;
  double avg = static_cast<double>(masked.num_rows()) /
               static_cast<double>(fs.num_groups());
  return avg / static_cast<double>(k);
}

Result<double> NormalizedAvgGroupSize(const ReleaseGroups& groups,
                                      size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (groups.num_classes() == 0) return 0.0;
  double avg = static_cast<double>(groups.num_rows()) /
               static_cast<double>(groups.num_classes());
  return avg / static_cast<double>(k);
}

double NormalizedHeight(const LatticeNode& node,
                        const GeneralizationLattice& lattice) {
  int total = lattice.height();
  if (total == 0) return 0.0;
  return static_cast<double>(node.Height()) / static_cast<double>(total);
}

double Precision(const LatticeNode& node, const HierarchySet& hierarchies) {
  double loss_sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    int max_level = hierarchies.hierarchy(i).num_levels() - 1;
    if (max_level <= 0) continue;
    loss_sum += static_cast<double>(node.levels[i]) /
                static_cast<double>(max_level);
    ++counted;
  }
  if (counted == 0) return 1.0;
  return 1.0 - loss_sum / static_cast<double>(counted);
}

double SuppressionRatio(size_t suppressed, size_t total_rows) {
  if (total_rows == 0) return 0.0;
  return static_cast<double>(suppressed) / static_cast<double>(total_rows);
}

Result<double> NonUniformEntropyLoss(const Table& initial,
                                     const Table& masked,
                                     const HierarchySet& hierarchies,
                                     const LatticeNode& node) {
  std::vector<size_t> initial_keys = initial.schema().KeyIndices();
  std::vector<size_t> masked_keys = masked.schema().KeyIndices();
  if (initial_keys.size() != hierarchies.size() ||
      node.levels.size() != hierarchies.size() ||
      masked_keys.size() != initial_keys.size()) {
    return Status::InvalidArgument(
        "hierarchies/node do not match the schemas' key attributes");
  }
  if (initial.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "initial and masked tables must be row-aligned (no suppression)");
  }
  double loss = 0.0;
  for (size_t slot = 0; slot < initial_keys.size(); ++slot) {
    if (node.levels[slot] == 0) continue;  // identity level, no loss
    // Ground-value and bucket frequencies over the initial column.
    std::unordered_map<Value, size_t, ValueHash> ground_freq;
    for (const Value& v : initial.column(initial_keys[slot])) {
      ++ground_freq[v];
    }
    std::unordered_map<Value, size_t, ValueHash> bucket_freq;
    std::unordered_map<Value, Value, ValueHash> up;
    for (const auto& [ground, freq] : ground_freq) {
      PSK_ASSIGN_OR_RETURN(
          Value bucket,
          hierarchies.hierarchy(slot).Generalize(ground, node.levels[slot]));
      bucket_freq[bucket] += freq;
      up.emplace(ground, std::move(bucket));
    }
    for (const Value& v : initial.column(initial_keys[slot])) {
      const Value& bucket = up.at(v);
      loss -= std::log2(static_cast<double>(ground_freq.at(v)) /
                        static_cast<double>(bucket_freq.at(bucket)));
    }
  }
  return loss;
}

Result<double> DisclosureRiskTupleFraction(
    const Table& masked, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices) {
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(masked, key_indices));
  if (masked.num_rows() == 0) return 0.0;
  size_t at_risk = 0;
  for (const Group& group : fs.groups()) {
    bool disclosed = false;
    for (size_t col : confidential_indices) {
      std::unordered_set<Value, ValueHash> seen;
      for (size_t row : group.row_indices) {
        seen.insert(masked.Get(row, col));
        if (seen.size() > 1) break;
      }
      if (seen.size() == 1) {
        disclosed = true;
        break;
      }
    }
    if (disclosed) at_risk += group.size();
  }
  return static_cast<double>(at_risk) /
         static_cast<double>(masked.num_rows());
}

Result<double> ReidentificationRisk(const Table& masked,
                                    const std::vector<size_t>& key_indices) {
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(masked, key_indices));
  if (masked.num_rows() == 0) return 0.0;
  // Sum over tuples of 1/|G(t)| = number of groups; divide by n.
  return static_cast<double>(fs.num_groups()) /
         static_cast<double>(masked.num_rows());
}

}  // namespace psk
