// Differential tests of the release group index: every guard and
// scorecard field read off ReleaseGroups must equal the Value-keyed tester
// it replaces (AnonymityK, SensitivityP, CountAttributeDisclosures,
// MarketerRisk, DiscernibilityMetric, NormalizedAvgGroupSize), on seeded
// random tables with nulls, int64s, doubles (-0.0 and NaN included) and
// strings, and on the edge releases: empty, all-suppressed, single-class,
// no confidential attributes, and a release_transform output.

#include "psk/table/release_groups.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/anonymizer.h"
#include "psk/datagen/adult.h"
#include "psk/generalize/generalize.h"
#include "psk/guard/guard.h"
#include "psk/metrics/metrics.h"
#include "psk/metrics/risk.h"
#include "psk/table/group_by.h"
#include "test_util.h"

namespace psk {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Schema MixedSchema(bool with_confidential) {
  std::vector<Attribute> attrs = {
      {"Id", ValueType::kString, AttributeRole::kIdentifier},
      {"KInt", ValueType::kInt64, AttributeRole::kKey},
      {"KDouble", ValueType::kDouble, AttributeRole::kKey},
      {"KStr", ValueType::kString, AttributeRole::kKey},
      {"Other", ValueType::kInt64, AttributeRole::kOther},
  };
  if (with_confidential) {
    attrs.push_back({"CStr", ValueType::kString, AttributeRole::kConfidential});
    attrs.push_back(
        {"CDouble", ValueType::kDouble, AttributeRole::kConfidential});
    attrs.push_back({"CInt", ValueType::kInt64, AttributeRole::kConfidential});
  }
  return UnwrapOk(Schema::Create(std::move(attrs)));
}

/// A cell of `type` drawn from a small pool, so rows collide into classes;
/// about one cell in eight is null.
Value RandomCell(ValueType type, std::mt19937_64* rng) {
  if ((*rng)() % 8 == 0) return Value::Null();
  switch (type) {
    case ValueType::kInt64:
      return Value(static_cast<int64_t>((*rng)() % 4) - 1);
    case ValueType::kDouble: {
      static const double kPool[] = {0.0, -0.0, 1.5, -2.25, kNaN};
      return Value(kPool[(*rng)() % 5]);
    }
    case ValueType::kString: {
      static const char* kPool[] = {"a", "b", "", "a long string value that "
                                    "is interned outside the hot shard"};
      return Value(kPool[(*rng)() % 4]);
    }
    default:
      return Value::Null();
  }
}

Table RandomTable(uint64_t seed, size_t rows, bool with_confidential) {
  std::mt19937_64 rng(seed);
  Table table(MixedSchema(with_confidential));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (const Attribute& attr : table.schema().attributes()) {
      row.push_back(RandomCell(attr.type, &rng));
    }
    PSK_EXPECT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

/// Distinct values of `col` among `rows` by Value equality — the
/// reference the per-(class, attribute) counts must match.
size_t ValueDistinct(const Table& table, const std::vector<size_t>& rows,
                     size_t col) {
  std::unordered_set<Value, ValueHash> seen;
  for (size_t row : rows) seen.insert(table.Get(row, col));
  return seen.size();
}

/// Checks every field the index serves against the Value-keyed functions
/// over the same release.
void ExpectMatchesValueKeyed(const Table& release, size_t suppressed,
                             size_t total_rows, size_t k) {
  const std::vector<size_t> keys = release.schema().KeyIndices();
  const std::vector<size_t> confs = release.schema().ConfidentialIndices();
  ReleaseGroups groups = ReleaseGroups::Build(release);
  FrequencySet fs = UnwrapOk(FrequencySet::Compute(release, keys));

  // The partition itself, class for class in first-occurrence order.
  ASSERT_EQ(groups.num_rows(), release.num_rows());
  ASSERT_EQ(groups.num_classes(), fs.num_groups());
  ASSERT_EQ(groups.num_confidential(), confs.size());
  for (size_t cls = 0; cls < fs.num_groups(); ++cls) {
    const Group& group = fs.groups()[cls];
    EXPECT_EQ(groups.class_sizes()[cls], group.size());
    for (size_t row : group.row_indices) {
      EXPECT_EQ(groups.row_class()[row], cls);
    }
    for (size_t j = 0; j < confs.size(); ++j) {
      EXPECT_EQ(groups.distinct(cls, j),
                ValueDistinct(release, group.row_indices, confs[j]))
          << "class " << cls << " confidential " << j;
    }
  }

  // Scorecard fields.
  EXPECT_EQ(groups.MinClassSize(), UnwrapOk(AnonymityK(release, keys)));
  if (!confs.empty()) {
    EXPECT_EQ(groups.MinDistinct(),
              UnwrapOk(SensitivityP(release, keys, confs)));
    EXPECT_EQ(groups.AttributeDisclosures(),
              UnwrapOk(CountAttributeDisclosures(release, keys, confs)));
  }
  EXPECT_EQ(MarketerRisk(groups), UnwrapOk(MarketerRisk(release, keys)));
  EXPECT_EQ(DiscernibilityMetric(groups, suppressed, total_rows),
            UnwrapOk(DiscernibilityMetric(release, keys, suppressed,
                                          total_rows)));
  EXPECT_EQ(UnwrapOk(NormalizedAvgGroupSize(groups, k)),
            UnwrapOk(NormalizedAvgGroupSize(release, keys, k)));

  // Guard fields: a policy that runs every check, and the index the guard
  // hands out is the same partition.
  GuardPolicy policy;
  policy.k = k;
  policy.p = 2;
  policy.max_suppression = suppressed;
  policy.max_attribute_disclosures = 0;
  ReleaseGroups from_guard;
  GuardReport report = UnwrapOk(
      VerifyRelease(release, total_rows, policy, nullptr, &from_guard));
  EXPECT_EQ(from_guard.row_class(), groups.row_class());
  EXPECT_EQ(from_guard.class_sizes(), groups.class_sizes());
  EXPECT_EQ(report.suppressed, total_rows - release.num_rows());
  if (!keys.empty() && release.num_rows() > 0) {
    EXPECT_EQ(report.observed_k, UnwrapOk(AnonymityK(release, keys)));
    if (!confs.empty()) {
      EXPECT_EQ(report.observed_p,
                UnwrapOk(SensitivityP(release, keys, confs)));
      EXPECT_EQ(report.attribute_disclosures,
                UnwrapOk(CountAttributeDisclosures(release, keys, confs)));
    }
  }
}

// The premise the index rests on: within a typed column, two cells carry
// the same id exactly when they compare equal as Values — nulls, -0.0 vs
// 0.0 (one id, equal) and NaN (a fresh id per interned cell, never equal)
// included. Tuples of ids are then equal exactly when tuples of Values
// are.
TEST(ReleaseGroupsTest, IdTupleEqualityIsValueTupleEquality) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Table table = RandomTable(seed, 60, /*with_confidential=*/true);
    const size_t cols = table.num_columns();
    for (size_t a = 0; a < table.num_rows(); ++a) {
      for (size_t b = a + 1; b < table.num_rows(); ++b) {
        bool ids_equal = true;
        bool values_equal = true;
        for (size_t col = 0; col < cols; ++col) {
          bool id_eq = table.GetId(a, col) == table.GetId(b, col);
          bool value_eq = table.Get(a, col) == table.Get(b, col);
          ASSERT_EQ(id_eq, value_eq)
              << "seed " << seed << " rows " << a << "," << b << " col "
              << col << ": " << table.Get(a, col) << " vs "
              << table.Get(b, col);
          ids_equal = ids_equal && id_eq;
          values_equal = values_equal && value_eq;
        }
        EXPECT_EQ(ids_equal, values_equal);
      }
    }
  }
  Table zeros(MixedSchema(false));
  PSK_ASSERT_OK(zeros.AppendRow({Value::Null(), Value::Null(), Value(0.0),
                                 Value::Null(), Value::Null()}));
  PSK_ASSERT_OK(zeros.AppendRow({Value::Null(), Value::Null(), Value(-0.0),
                                 Value::Null(), Value::Null()}));
  PSK_ASSERT_OK(zeros.AppendRow({Value::Null(), Value::Null(), Value(kNaN),
                                 Value::Null(), Value::Null()}));
  PSK_ASSERT_OK(zeros.AppendRow({Value::Null(), Value::Null(), Value(kNaN),
                                 Value::Null(), Value::Null()}));
  EXPECT_EQ(zeros.GetId(0, 2), zeros.GetId(1, 2));
  EXPECT_NE(zeros.GetId(2, 2), zeros.GetId(3, 2));
  EXPECT_EQ(ReleaseGroups::Build(zeros).class_sizes(),
            (std::vector<uint32_t>{2, 1, 1}));
}

TEST(ReleaseGroupsTest, MatchesValueKeyedOnRandomTables) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    size_t rows = seed % 7 == 0 ? seed % 3 : 20 + seed * 7;
    Table table = RandomTable(seed, rows, /*with_confidential=*/true);
    ExpectMatchesValueKeyed(table, seed % 5, rows + seed % 5, 2);
  }
}

TEST(ReleaseGroupsTest, EmptyRelease) {
  Table empty(MixedSchema(true));
  ReleaseGroups groups = ReleaseGroups::Build(empty);
  EXPECT_EQ(groups.num_classes(), 0u);
  EXPECT_EQ(groups.MinClassSize(), 0u);
  EXPECT_EQ(groups.MinDistinct(), 0u);
  EXPECT_EQ(groups.AttributeDisclosures(), 0u);
  ExpectMatchesValueKeyed(empty, 0, 0, 3);
}

TEST(ReleaseGroupsTest, AllSuppressedRelease) {
  Table table = RandomTable(7, 50, /*with_confidential=*/true);
  size_t suppressed = 0;
  Table release = UnwrapOk(SuppressUndersizedGroups(
      table, table.schema().KeyIndices(), 51, &suppressed));
  ASSERT_EQ(release.num_rows(), 0u);
  ASSERT_EQ(suppressed, 50u);
  ExpectMatchesValueKeyed(release, suppressed, 50, 3);
}

TEST(ReleaseGroupsTest, SingleClassRelease) {
  // The lattice top of the Adult hierarchies puts every row in one class.
  Table im = UnwrapOk(AdultGenerate(200, 4));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  GeneralizationLattice lattice(hierarchies);
  MaskedMicrodata mm = UnwrapOk(Mask(im, hierarchies, lattice.Top(), 3));
  ASSERT_EQ(ReleaseGroups::Build(mm.table).num_classes(), 1u);
  ExpectMatchesValueKeyed(mm.table, mm.suppressed, im.num_rows(), 3);
}

TEST(ReleaseGroupsTest, NoConfidentialAttributes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Table table = RandomTable(seed, 80, /*with_confidential=*/false);
    ReleaseGroups groups = ReleaseGroups::Build(table);
    EXPECT_EQ(groups.num_confidential(), 0u);
    EXPECT_EQ(groups.MinDistinct(), 0u);
    EXPECT_EQ(groups.AttributeDisclosures(), 0u);
    ExpectMatchesValueKeyed(table, 0, 80, 2);
  }
}

// Row copies share ids. A copied NaN cell is one id but still equals
// nothing, so it must count as a separate confidential value, exactly as
// the Value-keyed per-group scans count it; the classes follow the
// id-keyed FrequencySet either way.
TEST(ReleaseGroupsTest, CopiedNaNCellsStayDistinct) {
  Table table = RandomTable(3, 40, /*with_confidential=*/true);
  std::vector<size_t> copies;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    copies.push_back(row);
    copies.push_back(row);
  }
  Table doubled = UnwrapOk(table.FilterRows(copies));
  size_t nan_cells = 0;
  size_t cdouble = UnwrapOk(doubled.schema().IndexOf("CDouble"));
  for (size_t row = 0; row < doubled.num_rows(); ++row) {
    const Value& v = doubled.Get(row, cdouble);
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDouble())) {
      ++nan_cells;
    }
  }
  ASSERT_GT(nan_cells, 0u);
  ExpectMatchesValueKeyed(doubled, 0, doubled.num_rows(), 2);
}

// Run()'s report, for every kind of stage and with the guard on and off,
// equals the Value-keyed testers over the released table — including when
// a release_transform reshapes the release before the guard sees it.
TEST(ReleaseGroupsTest, RunScorecardAndGuardMatchValueKeyed) {
  Table im = UnwrapOk(AdultGenerate(300, 8));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  const size_t k = 3;
  for (AnonymizationAlgorithm algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kExhaustive,
        AnonymizationAlgorithm::kOla, AnonymizationAlgorithm::kMondrian,
        AnonymizationAlgorithm::kGreedyCluster,
        AnonymizationAlgorithm::kFullSuppression}) {
    for (bool guard : {true, false}) {
      for (bool transform : {false, true}) {
        SCOPED_TRACE("algorithm " + std::to_string(static_cast<int>(
                                        algorithm)) +
                     " guard " + std::to_string(guard) + " transform " +
                     std::to_string(transform));
        Anonymizer anonymizer(im);
        for (size_t i = 0; i < hierarchies.size(); ++i) {
          anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
        }
        anonymizer.set_k(k).set_p(2).set_max_suppression(6);
        anonymizer.set_algorithm(algorithm).set_guard_enabled(guard);
        if (transform) {
          // Every row twice, in reverse order: classes double in size and
          // are renumbered, the distinct counts stay.
          anonymizer.set_release_transform([](Table masked) -> Result<Table> {
            std::vector<size_t> rows;
            for (size_t r = masked.num_rows(); r-- > 0;) {
              rows.push_back(r);
              rows.push_back(r);
            }
            return masked.FilterRows(rows);
          });
        }
        Result<AnonymizationReport> run = anonymizer.Run();
        if (transform && guard) {
          // The doubled release has more rows than the input: the guard
          // refuses it as malformed, and nothing is scored.
          EXPECT_FALSE(run.ok());
          continue;
        }
        AnonymizationReport report = UnwrapOk(std::move(run));
        const Table& masked = report.masked;
        std::vector<size_t> keys = masked.schema().KeyIndices();
        std::vector<size_t> confs = masked.schema().ConfidentialIndices();
        EXPECT_EQ(report.achieved_k, UnwrapOk(AnonymityK(masked, keys)));
        EXPECT_EQ(report.achieved_p,
                  UnwrapOk(SensitivityP(masked, keys, confs)));
        EXPECT_EQ(report.attribute_disclosures,
                  UnwrapOk(CountAttributeDisclosures(masked, keys, confs)));
        EXPECT_EQ(report.reidentification_risk,
                  UnwrapOk(MarketerRisk(masked, keys)));
        EXPECT_EQ(report.discernibility,
                  UnwrapOk(DiscernibilityMetric(masked, keys,
                                                report.suppressed,
                                                im.num_rows())));
        EXPECT_EQ(report.normalized_avg_group_size,
                  UnwrapOk(NormalizedAvgGroupSize(masked, keys, k)));
        if (guard) {
          EXPECT_EQ(report.guard.observed_k, report.achieved_k);
          EXPECT_EQ(report.guard.observed_p, report.achieved_p);
          EXPECT_EQ(report.guard.attribute_disclosures,
                    report.attribute_disclosures);
        }
        ExpectMatchesValueKeyed(masked, report.suppressed,
                                std::max(im.num_rows(), masked.num_rows()),
                                k);
      }
    }
  }
}

// A transform that keeps the row count but changes the classes: the guard
// and scorecard both see the transformed release.
TEST(ReleaseGroupsTest, TransformedReleaseIsWhatTheGuardAndScorecardSee) {
  Table im = UnwrapOk(AdultGenerate(300, 9));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  Anonymizer anonymizer(im);
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  anonymizer.set_release_transform([](Table masked) -> Result<Table> {
    // Reverse the rows: the same partition, renumbered classes.
    std::vector<size_t> rows;
    for (size_t r = masked.num_rows(); r-- > 0;) rows.push_back(r);
    return masked.FilterRows(rows);
  });
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  ASSERT_TRUE(report.guard.passed) << report.guard.Summary();
  const Table& masked = report.masked;
  std::vector<size_t> keys = masked.schema().KeyIndices();
  EXPECT_EQ(report.guard.observed_k, UnwrapOk(AnonymityK(masked, keys)));
  EXPECT_EQ(report.achieved_k, report.guard.observed_k);
  EXPECT_EQ(report.discernibility,
            UnwrapOk(DiscernibilityMetric(masked, keys, report.suppressed,
                                          im.num_rows())));
  ExpectMatchesValueKeyed(masked, report.suppressed, im.num_rows(), 3);
}

}  // namespace
}  // namespace psk
