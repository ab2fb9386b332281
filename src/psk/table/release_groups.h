#ifndef PSK_TABLE_RELEASE_GROUPS_H_
#define PSK_TABLE_RELEASE_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "psk/table/table.h"

namespace psk {

/// The QI partition of one released table, built once from its interned
/// id columns: a dense class id per row, the class sizes, and the number
/// of distinct values of each confidential attribute within each class.
///
/// Every property the release guard checks and every partition measure of
/// the scorecard — k, p, attribute disclosures, marketer risk,
/// discernibility, average group size — is a function of this one
/// partition (the framing of A-COMPASS: anonymity analysis as a function
/// of the equivalence-class partition). One pass over 32-bit ids replaces
/// a Value-keyed FrequencySet group-by per measure.
///
/// Equality semantics match the Value-keyed testers exactly:
///  - classes group rows by the tuple of key-attribute ids, which is what
///    FrequencySet::Compute groups by (within a typed column, equal cells
///    carry equal ids and unequal cells unequal ids);
///  - distinct confidential values are counted by Value equality, like
///    the per-group scans of SensitivityP and CountAttributeDisclosures:
///    by id, except that a NaN double equals nothing — every NaN cell
///    counts as its own value, even when a row copy shares its id.
///
/// Classes are numbered by first occurrence in row order, the group order
/// of FrequencySet::Compute.
class ReleaseGroups {
 public:
  /// Groups `release` by its schema's key attributes (all rows form one
  /// class when it declares none) and counts distinct values of each of
  /// its confidential attributes per class. O(rows x columns) over ids;
  /// no Value is hashed or copied.
  static ReleaseGroups Build(const Table& release);

  size_t num_rows() const { return row_class_.size(); }
  size_t num_classes() const { return class_sizes_.size(); }
  /// Confidential attributes of the release, in schema order.
  size_t num_confidential() const { return distinct_.size(); }

  /// row_class()[row] in [0, num_classes()).
  const std::vector<uint32_t>& row_class() const { return row_class_; }
  const std::vector<uint32_t>& class_sizes() const { return class_sizes_; }
  /// Distinct values of confidential attribute `j` (schema confidential
  /// order) in class `cls`.
  uint32_t distinct(size_t cls, size_t j) const { return distinct_[j][cls]; }

  /// Smallest class size — AnonymityK of the release; 0 when it is empty.
  size_t MinClassSize() const;
  /// Smallest per-class distinct count over every confidential attribute
  /// — SensitivityP of the release; 0 when it is empty or has no
  /// confidential attributes.
  size_t MinDistinct() const;
  /// (class, confidential attribute) pairs whose class holds a single
  /// value — CountAttributeDisclosures of the release.
  size_t AttributeDisclosures() const;

 private:
  std::vector<uint32_t> row_class_;
  std::vector<uint32_t> class_sizes_;
  /// distinct_[j][cls] for confidential attribute j.
  std::vector<std::vector<uint32_t>> distinct_;
};

}  // namespace psk

#endif  // PSK_TABLE_RELEASE_GROUPS_H_
