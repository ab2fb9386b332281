#include "release_check.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

/// Canonical text of a cell: its type tag, then its rendering.
std::string CellText(const psk::Value& value) {
  std::string text(1, static_cast<char>('0' + static_cast<int>(value.type())));
  text += value.ToString();
  return text;
}

/// Per-column dense codes assigned by cell value (not by value-store id,
/// so the check does not rely on how the store interns).
std::vector<uint32_t> ColumnCodes(const psk::Table& table, size_t col) {
  std::unordered_map<psk::ValueId, uint32_t> by_id;
  std::unordered_map<std::string, uint32_t> by_text;
  std::vector<uint32_t> codes(table.num_rows());
  for (size_t row = 0; row < table.num_rows(); ++row) {
    psk::ValueId id = table.GetId(row, col);
    auto it = by_id.find(id);
    if (it == by_id.end()) {
      std::string text = CellText(table.store()->Get(id));
      uint32_t code = by_text.emplace(text, by_text.size()).first->second;
      it = by_id.emplace(id, code).first;
    }
    codes[row] = it->second;
  }
  return codes;
}

}  // namespace

psk::Status VerifyRelease(const psk::Table& release, size_t original_rows,
                          const ReleasePolicy& policy) {
  const psk::Schema& schema = release.schema();
  std::vector<size_t> keys = schema.KeyIndices();
  std::vector<size_t> confs = schema.ConfidentialIndices();
  if (keys.empty()) {
    return psk::Status::FailedPrecondition("release has no key attributes");
  }
  if (release.num_rows() > original_rows) {
    return psk::Status::FailedPrecondition("release has more rows than input");
  }
  size_t suppressed = original_rows - release.num_rows();
  if (suppressed > policy.max_suppression) {
    return psk::Status::FailedPrecondition(
        "suppressed " + std::to_string(suppressed) + " rows, cap " +
        std::to_string(policy.max_suppression));
  }

  std::vector<std::vector<uint32_t>> key_codes;
  for (size_t col : keys) key_codes.push_back(ColumnCodes(release, col));
  std::vector<std::vector<uint32_t>> conf_codes;
  for (size_t col : confs) conf_codes.push_back(ColumnCodes(release, col));

  // Group id of every row by its QI tuple.
  std::unordered_map<std::string, uint32_t> group_of;
  std::vector<uint32_t> group(release.num_rows());
  std::string tuple(keys.size() * sizeof(uint32_t), '\0');
  for (size_t row = 0; row < release.num_rows(); ++row) {
    for (size_t j = 0; j < keys.size(); ++j) {
      std::memcpy(&tuple[j * sizeof(uint32_t)], &key_codes[j][row],
                  sizeof(uint32_t));
    }
    group[row] = group_of.emplace(tuple, group_of.size()).first->second;
  }
  size_t num_groups = group_of.size();

  std::vector<size_t> sizes(num_groups, 0);
  for (uint32_t g : group) ++sizes[g];
  for (size_t g = 0; g < num_groups; ++g) {
    if (sizes[g] < policy.k) {
      return psk::Status::FailedPrecondition(
          "a QI-group has " + std::to_string(sizes[g]) + " rows, k=" +
          std::to_string(policy.k));
    }
  }

  // Distinct confidential values per group: sort (group, code) pairs.
  std::vector<uint64_t> pairs(release.num_rows());
  for (size_t j = 0; j < confs.size(); ++j) {
    for (size_t row = 0; row < release.num_rows(); ++row) {
      pairs[row] = (uint64_t{group[row]} << 32) | conf_codes[j][row];
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<size_t> distinct(num_groups, 0);
    for (uint64_t pair : pairs) ++distinct[pair >> 32];
    for (size_t g = 0; g < num_groups; ++g) {
      if (distinct[g] < policy.p) {
        return psk::Status::FailedPrecondition(
            "a QI-group has " + std::to_string(distinct[g]) +
            " distinct values of '" + schema.attribute(confs[j]).name +
            "', p=" + std::to_string(policy.p));
      }
    }
    pairs.resize(release.num_rows());
  }
  return psk::Status::OK();
}

}  // namespace perfbench
