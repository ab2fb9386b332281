#include "psk/table/release_groups.h"

#include <algorithm>

#include "psk/table/group_by.h"

namespace psk {

ReleaseGroups ReleaseGroups::Build(const Table& release) {
  const Schema& schema = release.schema();
  const size_t rows = release.num_rows();
  ReleaseGroups out;

  std::vector<size_t> key_cols = schema.KeyIndices();
  std::vector<std::vector<uint32_t>> keys(key_cols.size());
  std::vector<CodeColumnView> views;
  for (size_t i = 0; i < key_cols.size(); ++i) {
    uint32_t cardinality = EncodeColumnIds(release, key_cols[i],
                                           /*nan_never_equal=*/false,
                                           &keys[i]);
    views.push_back(CodeColumnView{keys[i].data(), nullptr, cardinality});
  }
  GroupByScratch scratch;
  EncodedGroups groups;
  GroupByCodes(views, rows, &scratch, &groups);
  out.row_class_ = std::move(groups.row_gid);
  out.class_sizes_ = std::move(groups.group_sizes);

  std::vector<size_t> confs = schema.ConfidentialIndices();
  out.distinct_.resize(confs.size());
  if (confs.empty()) return out;

  // Rows ordered by class (counting sort, stable), so each class is one
  // contiguous run and a per-code stamp of the last class that saw the
  // code counts distinct values without clearing between classes.
  const size_t classes = out.num_classes();
  std::vector<uint32_t> start(classes + 1, 0);
  for (size_t cls = 0; cls < classes; ++cls) {
    start[cls + 1] = start[cls] + out.class_sizes_[cls];
  }
  std::vector<uint32_t> order(rows);
  {
    std::vector<uint32_t> fill(start.begin(), start.end() - 1);
    for (size_t row = 0; row < rows; ++row) {
      order[fill[out.row_class_[row]]++] = static_cast<uint32_t>(row);
    }
  }
  std::vector<uint32_t> codes;
  for (size_t j = 0; j < confs.size(); ++j) {
    uint32_t cardinality = EncodeColumnIds(release, confs[j],
                                           /*nan_never_equal=*/true, &codes);
    std::vector<uint32_t> stamp(cardinality, UINT32_MAX);
    std::vector<uint32_t>& distinct = out.distinct_[j];
    distinct.assign(classes, 0);
    for (uint32_t cls = 0; cls < classes; ++cls) {
      uint32_t count = 0;
      for (uint32_t i = start[cls]; i < start[cls + 1]; ++i) {
        uint32_t code = codes[order[i]];
        if (stamp[code] != cls) {
          stamp[code] = cls;
          ++count;
        }
      }
      distinct[cls] = count;
    }
  }
  return out;
}

size_t ReleaseGroups::MinClassSize() const {
  if (class_sizes_.empty()) return 0;
  return *std::min_element(class_sizes_.begin(), class_sizes_.end());
}

size_t ReleaseGroups::MinDistinct() const {
  if (class_sizes_.empty() || distinct_.empty()) return 0;
  uint32_t min_distinct = UINT32_MAX;
  for (const std::vector<uint32_t>& per_class : distinct_) {
    min_distinct = std::min(
        min_distinct, *std::min_element(per_class.begin(), per_class.end()));
  }
  return min_distinct;
}

size_t ReleaseGroups::AttributeDisclosures() const {
  size_t disclosures = 0;
  for (const std::vector<uint32_t>& per_class : distinct_) {
    disclosures += std::count(per_class.begin(), per_class.end(), 1u);
  }
  return disclosures;
}

}  // namespace psk
