// Oracle suite for the dictionary-encoded evaluation core. Every lattice
// engine runs on EncodedTable; the reference it is held to is the paper's
// own definition evaluated the slow way on Value rows: Mask() the node
// (generalize, then suppress the QI-groups smaller than k), apply the
// suppression threshold TS, then run Algorithm 1 (CheckBasic) on the
// masked microdata. The tests below check, against that reference, every
// node verdict, the brute-force satisfying and minimal sets, every
// engine's answer, every Anonymizer release byte for byte, and the
// guard's verdict — on Adult, on the paper's tables, and on seeded random
// small tables. ("Legacy" in a test name means this Value pipeline.)

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/anonymity/diversity.h"
#include "psk/anonymity/frequency_stats.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/anonymizer.h"
#include "psk/api/spec_parser.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "psk/generalize/generalize.h"
#include "psk/guard/guard.h"
#include "psk/metrics/metrics.h"
#include "psk/table/csv.h"
#include "psk/table/encoded.h"
#include "psk/table/group_by.h"
#include "test_util.h"

namespace psk {

// Readable node values in assertion failures ("1,0,2").
void PrintTo(const LatticeNode& node, std::ostream* os) {
  *os << SnapshotNodeKey(node);
}

namespace {

void ExpectStatsEq(const SearchStats& a, const SearchStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.nodes_generalized, b.nodes_generalized) << what;
  EXPECT_EQ(a.nodes_pruned_condition2, b.nodes_pruned_condition2) << what;
  EXPECT_EQ(a.nodes_rejected_kanonymity, b.nodes_rejected_kanonymity)
      << what;
  EXPECT_EQ(a.nodes_rejected_detail, b.nodes_rejected_detail) << what;
  EXPECT_EQ(a.nodes_satisfied, b.nodes_satisfied) << what;
  EXPECT_EQ(a.nodes_skipped, b.nodes_skipped) << what;
  EXPECT_EQ(a.nodes_cache_hits, b.nodes_cache_hits) << what;
  EXPECT_EQ(a.heights_probed, b.heights_probed) << what;
  EXPECT_EQ(a.subset_nodes_evaluated, b.subset_nodes_evaluated) << what;
  EXPECT_EQ(a.partial, b.partial) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
}

struct AdultFixture {
  Table table;
  HierarchySet hierarchies;

  explicit AdultFixture(size_t n = 4000, uint64_t seed = 1)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))) {}
};

SearchOptions BaseOptions(size_t threads) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 40;
  options.threads = threads;
  return options;
}

// ---------------------------------------------------------------------------
// The reference: the paper's definition on Value rows, sharing no code with
// the encoded core beyond the hierarchies.

struct ReferenceVerdict {
  bool satisfied = false;
  /// Tuples Mask() suppressed (groups smaller than k).
  size_t suppressed = 0;
  /// QI-groups of the masked microdata.
  size_t num_groups = 0;
  MaskedMicrodata masked;
};

// Algorithm 1, the basic Value-keyed p-sensitive k-anonymity test. A table
// without confidential attributes (p = 1 only) is tested for k-anonymity.
bool Algorithm1(const Table& mm, const SearchOptions& options) {
  if (mm.schema().ConfidentialIndices().empty()) {
    return UnwrapOk(IsKAnonymous(mm, mm.schema().KeyIndices(), options.k));
  }
  return UnwrapOk(CheckBasic(mm, options.p, options.k)).satisfied;
}

// Mask + the TS gate + Algorithm 1.
ReferenceVerdict ReferenceEvaluate(const Table& im,
                                   const HierarchySet& hierarchies,
                                   const LatticeNode& node,
                                   const SearchOptions& options) {
  ReferenceVerdict verdict;
  verdict.masked = UnwrapOk(Mask(im, hierarchies, node, options.k));
  const Table& mm = verdict.masked.table;
  verdict.suppressed = verdict.masked.suppressed;
  verdict.num_groups =
      UnwrapOk(FrequencySet::Compute(mm, mm.schema().KeyIndices()))
          .num_groups();
  verdict.satisfied =
      verdict.suppressed <= options.max_suppression && Algorithm1(mm, options);
  return verdict;
}

// Every lattice node the reference accepts, sorted.
std::vector<LatticeNode> BruteForceSatisfying(const Table& im,
                                              const HierarchySet& hierarchies,
                                              const SearchOptions& options) {
  std::vector<LatticeNode> satisfying;
  for (const LatticeNode& node : GeneralizationLattice(hierarchies).AllNodes()) {
    if (ReferenceEvaluate(im, hierarchies, node, options).satisfied) {
      satisfying.push_back(node);
    }
  }
  std::sort(satisfying.begin(), satisfying.end());
  return satisfying;
}

// Definition 3: the satisfying nodes that generalize no other satisfying
// node. Keeps the input order.
std::vector<LatticeNode> MinimalElements(const std::vector<LatticeNode>& set) {
  std::vector<LatticeNode> minimal;
  for (const LatticeNode& node : set) {
    bool dominated = false;
    for (const LatticeNode& other : set) {
      if (other != node &&
          GeneralizationLattice::IsGeneralizationOf(node, other)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(node);
  }
  return minimal;
}

// Algorithm 1 plus the TS cap on a release: the verdict the guard must
// reach on it.
bool ReleaseSatisfies(const Table& release, size_t original_rows,
                      const SearchOptions& options) {
  return original_rows - release.num_rows() <= options.max_suppression &&
         Algorithm1(release, options);
}

// The guard policy Anonymizer applies by default for these options.
GuardPolicy DefaultPolicy(const SearchOptions& options) {
  GuardPolicy policy;
  policy.k = options.k;
  policy.p = options.p;
  policy.max_suppression = options.max_suppression;
  if (options.p >= 2) policy.max_attribute_disclosures = 0;
  return policy;
}

std::string Csv(const Table& table) { return WriteCsvString(table); }

// ---------------------------------------------------------------------------
// Decode byte-identity: the one-shot decode of the winning node must equal
// the legacy ApplyGeneralization + suppression pipeline byte for byte.

TEST(EncodedDecodeTest, DecodeMatchesLegacyMaskOnAdult) {
  AdultFixture fixture(1500, 5);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  // Ground node, a mixed mid-lattice node, and the top.
  std::vector<LatticeNode> nodes = {LatticeNode{{0, 0, 0, 0}},
                                    LatticeNode{{1, 0, 2, 1}},
                                    LatticeNode{{2, 1, 0, 0}},
                                    LatticeNode{{3, 2, 3, 1}}};
  for (const LatticeNode& node : nodes) {
    for (size_t k : {size_t{0}, size_t{3}}) {
      MaskedMicrodata legacy =
          UnwrapOk(Mask(fixture.table, fixture.hierarchies, node, k));
      MaskedMicrodata fast = UnwrapOk(DecodeMasked(encoded, node, k, &ws));
      EXPECT_EQ(fast.suppressed, legacy.suppressed)
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
      EXPECT_EQ(WriteCsvString(fast.table), WriteCsvString(legacy.table))
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
    }
  }
}

TEST(EncodedDecodeTest, InvalidNodesRejectedLikeLegacy) {
  AdultFixture fixture(200, 6);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  // Wrong level count: byte-identical message to ApplyGeneralization.
  LatticeNode short_node{{1, 0}};
  Status enc_status = encoded.GroupByNode(short_node, &ws);
  Result<Table> legacy =
      ApplyGeneralization(fixture.table, fixture.hierarchies, short_node);
  ASSERT_FALSE(enc_status.ok());
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(enc_status.code(), legacy.status().code());
  EXPECT_EQ(enc_status.message(), legacy.status().message());
  // Out-of-range level.
  LatticeNode tall_node{{9, 0, 0, 0}};
  EXPECT_FALSE(encoded.GroupByNode(tall_node, &ws).ok());
}

// ---------------------------------------------------------------------------
// Anonymity-check overloads: the code-path predicates agree with the
// Value-path predicates on the same partitions.

TEST(EncodedChecksTest, OverloadsAgreeWithLegacyChecks) {
  AdultFixture fixture(1200, 9);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  EncodedDistinctScratch scratch;

  FrequencyStats legacy_stats = UnwrapOk(FrequencyStats::Compute(fixture.table));
  FrequencyStats enc_stats = UnwrapOk(FrequencyStats::Compute(encoded));
  ASSERT_EQ(enc_stats.n(), legacy_stats.n());
  ASSERT_EQ(enc_stats.q(), legacy_stats.q());
  for (size_t j = 0; j < enc_stats.q(); ++j) {
    ASSERT_EQ(enc_stats.s(j), legacy_stats.s(j)) << "j=" << j;
    for (size_t i = 0; i < enc_stats.s(j); ++i) {
      EXPECT_EQ(enc_stats.f(j, i), legacy_stats.f(j, i));
      EXPECT_EQ(enc_stats.cf(j, i), legacy_stats.cf(j, i));
    }
  }
  EXPECT_EQ(enc_stats.MaxP(), legacy_stats.MaxP());
  for (size_t p = 2; p <= enc_stats.MaxP() && p <= 4; ++p) {
    EXPECT_EQ(UnwrapOk(enc_stats.MaxGroups(p)),
              UnwrapOk(legacy_stats.MaxGroups(p)));
  }

  for (const LatticeNode& node :
       {LatticeNode{{1, 1, 1, 0}}, LatticeNode{{2, 1, 2, 1}},
        LatticeNode{{3, 2, 3, 1}}}) {
    PSK_ASSERT_OK(encoded.GroupByNode(node, &ws));
    Table generalized = UnwrapOk(
        ApplyGeneralization(fixture.table, fixture.hierarchies, node));
    std::vector<size_t> keys = generalized.schema().KeyIndices();
    std::vector<size_t> confs = generalized.schema().ConfidentialIndices();
    for (size_t k : {size_t{2}, size_t{5}}) {
      EXPECT_EQ(UnwrapOk(IsKAnonymousEncoded(ws.groups, k)),
                UnwrapOk(IsKAnonymous(generalized, keys, k)))
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
    }
    for (size_t p : {size_t{2}, size_t{3}}) {
      EXPECT_EQ(
          IsPSensitiveEncoded(ws.groups, encoded, p, /*min_group_size=*/1,
                              &scratch),
          UnwrapOk(IsPSensitive(generalized, keys, confs, p)))
          << "node=" << SnapshotNodeKey(node) << " p=" << p;
      EXPECT_EQ(IsDistinctLDiverseEncoded(ws.groups, encoded, p, &scratch),
                UnwrapOk(IsDistinctLDiverse(generalized, keys, confs, p)))
          << "node=" << SnapshotNodeKey(node) << " l=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Engines on Adult against the reference, across thread counts.

TEST(EncodedEquivalenceTest, SamaratiMatchesLegacy) {
  AdultFixture fixture;
  SearchOptions options = BaseOptions(1);
  SearchResult base =
      UnwrapOk(SamaratiSearch(fixture.table, fixture.hierarchies, options));
  ASSERT_TRUE(base.found);
  ReferenceVerdict reference =
      ReferenceEvaluate(fixture.table, fixture.hierarchies, base.node, options);
  EXPECT_TRUE(reference.satisfied);
  EXPECT_EQ(base.suppressed, reference.suppressed);
  EXPECT_EQ(Csv(base.masked), Csv(reference.masked.table));
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SearchResult got = UnwrapOk(SamaratiSearch(
        fixture.table, fixture.hierarchies, BaseOptions(threads)));
    ASSERT_TRUE(got.found) << "threads=" << threads;
    EXPECT_EQ(got.node, base.node) << "threads=" << threads;
    EXPECT_EQ(got.suppressed, base.suppressed) << "threads=" << threads;
    EXPECT_EQ(Csv(got.masked), Csv(base.masked)) << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "samarati threads=" + std::to_string(threads));
  }
}

// Generalization preserves p-sensitive k-anonymity when suppression cannot
// interfere: with TS = 0 no group is ever suppressed, and p = 1 is plain
// k-anonymity. With both TS > 0 and p >= 2, two small groups suppressed at
// a node can merge into one that survives with fewer than p distinct
// values, so a generalization of a satisfying node may fail.
bool Monotone(const SearchOptions& options) {
  return options.p < 2 || options.max_suppression == 0;
}

// OLA's answer. When the property is monotone, its minimal set is the
// brute-force one. Otherwise its predictive tagging may tag a satisfying
// node as failing (a generalization of it failed), so it may miss minimal
// nodes (ola.h documents this); every node it reports must still satisfy
// the reference, and no two may be comparable. The optimum is the
// reported node whose Value-keyed discernibility (DM over Mask()) is
// smallest, first in minimal_nodes order on ties; its release is Mask() of
// that node.
void ExpectOlaMatchesReference(const Table& im,
                               const HierarchySet& hierarchies,
                               const SearchOptions& options,
                               const std::vector<LatticeNode>& satisfying,
                               const OlaResult& got, const std::string& what) {
  std::vector<LatticeNode> minimal = MinimalElements(satisfying);
  if (Monotone(options)) {
    EXPECT_EQ(got.minimal_nodes, minimal) << what;
    ASSERT_EQ(got.found, !minimal.empty()) << what;
  }
  for (const LatticeNode& node : got.minimal_nodes) {
    EXPECT_TRUE(std::binary_search(satisfying.begin(), satisfying.end(), node))
        << what << " node=" << SnapshotNodeKey(node);
  }
  EXPECT_EQ(MinimalElements(got.minimal_nodes), got.minimal_nodes) << what;
  ASSERT_EQ(got.found, !got.minimal_nodes.empty()) << what;
  if (!got.found) return;
  const LatticeNode* best = nullptr;
  uint64_t best_dm = 0;
  for (const LatticeNode& node : got.minimal_nodes) {
    MaskedMicrodata mm = UnwrapOk(Mask(im, hierarchies, node, options.k));
    uint64_t dm = UnwrapOk(DiscernibilityMetric(
        mm.table, mm.table.schema().KeyIndices(), mm.suppressed,
        im.num_rows()));
    if (best == nullptr || dm < best_dm) {
      best = &node;
      best_dm = dm;
    }
  }
  EXPECT_EQ(got.optimal, *best) << what;
  EXPECT_EQ(got.optimal_metric, static_cast<double>(best_dm)) << what;
  MaskedMicrodata expected =
      UnwrapOk(Mask(im, hierarchies, got.optimal, options.k));
  EXPECT_EQ(got.suppressed, expected.suppressed) << what;
  EXPECT_EQ(Csv(got.masked), Csv(expected.table)) << what;
}

TEST(EncodedEquivalenceTest, OlaMatchesLegacy) {
  AdultFixture fixture;
  SearchOptions options = BaseOptions(1);
  std::vector<LatticeNode> satisfying =
      BruteForceSatisfying(fixture.table, fixture.hierarchies, options);
  ASSERT_FALSE(satisfying.empty());
  OlaResult base;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    std::string what = "threads=" + std::to_string(threads);
    OlaOptions ola_options;
    ola_options.search = BaseOptions(threads);
    OlaResult got =
        UnwrapOk(OlaSearch(fixture.table, fixture.hierarchies, ola_options));
    ExpectOlaMatchesReference(fixture.table, fixture.hierarchies, options,
                              satisfying, got, what);
    if (threads == 1) {
      base = std::move(got);
    } else {
      ExpectStatsEq(got.stats, base.stats, "ola " + what);
    }
  }
}

TEST(EncodedEquivalenceTest, ExhaustiveMatchesLegacy) {
  AdultFixture fixture(1500, 2);
  SearchOptions options = BaseOptions(1);
  std::vector<LatticeNode> satisfying =
      BruteForceSatisfying(fixture.table, fixture.hierarchies, options);
  std::vector<LatticeNode> minimal = MinimalElements(satisfying);
  MinimalSetResult base =
      UnwrapOk(ExhaustiveSearch(fixture.table, fixture.hierarchies, options));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    MinimalSetResult got = UnwrapOk(ExhaustiveSearch(
        fixture.table, fixture.hierarchies, BaseOptions(threads)));
    std::sort(got.satisfying_nodes.begin(), got.satisfying_nodes.end());
    EXPECT_EQ(got.minimal_nodes, minimal) << "threads=" << threads;
    EXPECT_EQ(got.satisfying_nodes, satisfying) << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "exhaustive threads=" + std::to_string(threads));
  }
}

TEST(EncodedEquivalenceTest, BottomUpMatchesLegacy) {
  AdultFixture fixture(1500, 3);
  SearchOptions options = BaseOptions(1);
  std::vector<LatticeNode> minimal = MinimalElements(
      BruteForceSatisfying(fixture.table, fixture.hierarchies, options));
  MinimalSetResult got =
      UnwrapOk(BottomUpSearch(fixture.table, fixture.hierarchies, options));
  EXPECT_EQ(got.minimal_nodes, minimal);
}

TEST(EncodedEquivalenceTest, IncognitoMatchesLegacy) {
  AdultFixture fixture(1500, 4);
  SearchOptions options = BaseOptions(1);
  std::vector<LatticeNode> minimal = MinimalElements(
      BruteForceSatisfying(fixture.table, fixture.hierarchies, options));
  MinimalSetResult base =
      UnwrapOk(IncognitoSearch(fixture.table, fixture.hierarchies, options));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    MinimalSetResult got = UnwrapOk(IncognitoSearch(
        fixture.table, fixture.hierarchies, BaseOptions(threads)));
    EXPECT_EQ(got.minimal_nodes, minimal) << "threads=" << threads;
    EXPECT_EQ(got.satisfying_nodes, base.satisfying_nodes)
        << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "incognito threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Full API chain: every release is Mask() of the node the stage picked, and
// the guard's verdict is Algorithm 1's on the release.

const AnonymizationAlgorithm kAllAlgorithms[] = {
    AnonymizationAlgorithm::kSamarati,   AnonymizationAlgorithm::kIncognito,
    AnonymizationAlgorithm::kBottomUp,   AnonymizationAlgorithm::kExhaustive,
    AnonymizationAlgorithm::kMondrian,   AnonymizationAlgorithm::kGreedyCluster,
    AnonymizationAlgorithm::kOla};

bool IsLattice(AnonymizationAlgorithm algorithm) {
  return algorithm != AnonymizationAlgorithm::kMondrian &&
         algorithm != AnonymizationAlgorithm::kGreedyCluster;
}

// The engines that return every minimal node; the stage picks the lowest,
// then lexicographically first, of them.
bool IsMinimalSet(AnonymizationAlgorithm algorithm) {
  return algorithm == AnonymizationAlgorithm::kIncognito ||
         algorithm == AnonymizationAlgorithm::kBottomUp ||
         algorithm == AnonymizationAlgorithm::kExhaustive;
}

Result<AnonymizationReport> RunAnonymizer(const Table& im,
                                          const HierarchySet& hierarchies,
                                          const SearchOptions& options,
                                          AnonymizationAlgorithm algorithm) {
  Anonymizer anonymizer(im);
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(options.k).set_p(options.p);
  anonymizer.set_max_suppression(options.max_suppression);
  anonymizer.set_threads(options.threads);
  anonymizer.set_algorithm(algorithm);
  return anonymizer.Run();
}

// Checks one successful release against the reference. `minimal` is the
// brute-force minimal set for the options.
void ExpectReleaseMatchesReference(const Table& im,
                                   const HierarchySet& hierarchies,
                                   const SearchOptions& options,
                                   AnonymizationAlgorithm algorithm,
                                   const std::vector<LatticeNode>& minimal,
                                   const AnonymizationReport& report,
                                   const std::string& what) {
  const Table& release = report.masked;
  EXPECT_TRUE(report.guard.passed) << what;
  EXPECT_EQ(report.guard.passed, ReleaseSatisfies(release, im.num_rows(),
                                                  options))
      << what;
  EXPECT_EQ(report.guard.suppressed, im.num_rows() - release.num_rows())
      << what;
  std::vector<size_t> keys = release.schema().KeyIndices();
  std::vector<size_t> confs = release.schema().ConfidentialIndices();
  FrequencySet groups = UnwrapOk(FrequencySet::Compute(release, keys));
  EXPECT_EQ(report.guard.observed_k,
            groups.num_groups() == 0 ? 0 : groups.MinGroupSize())
      << what;
  EXPECT_EQ(report.achieved_k, report.guard.observed_k) << what;
  if (options.p >= 2) {
    EXPECT_EQ(report.guard.observed_p,
              UnwrapOk(SensitivityP(release, keys, confs)))
        << what;
    EXPECT_EQ(report.achieved_p, report.guard.observed_p) << what;
  }
  if (!IsLattice(algorithm)) return;
  ASSERT_TRUE(report.node.has_value()) << what;
  ReferenceVerdict reference =
      ReferenceEvaluate(im, hierarchies, *report.node, options);
  EXPECT_TRUE(reference.satisfied) << what;
  EXPECT_EQ(report.suppressed, reference.suppressed) << what;
  EXPECT_EQ(Csv(release), Csv(reference.masked.table)) << what;
  EXPECT_EQ(report.precision, Precision(*report.node, hierarchies)) << what;
  if (IsMinimalSet(algorithm)) {
    const LatticeNode* lowest = nullptr;
    for (const LatticeNode& node : minimal) {
      if (lowest == nullptr || node.Height() < lowest->Height()) {
        lowest = &node;
      }
    }
    ASSERT_NE(lowest, nullptr) << what;
    EXPECT_EQ(*report.node, *lowest) << what;
  }
}

TEST(EncodedEquivalenceTest, AnonymizerAllAlgorithmsMatchLegacy) {
  AdultFixture fixture(800, 7);
  SearchOptions options = BaseOptions(1);
  options.max_suppression = 8;
  std::vector<LatticeNode> minimal = MinimalElements(
      BruteForceSatisfying(fixture.table, fixture.hierarchies, options));
  for (AnonymizationAlgorithm algorithm : kAllAlgorithms) {
    std::string what = "algorithm=" + std::string(AlgorithmName(algorithm));
    AnonymizationReport report = UnwrapOk(RunAnonymizer(
        fixture.table, fixture.hierarchies, options, algorithm));
    EXPECT_EQ(report.algorithm_used, algorithm) << what;
    ExpectReleaseMatchesReference(fixture.table, fixture.hierarchies, options,
                                  algorithm, minimal, report, what);
  }
}

// ---------------------------------------------------------------------------
// Paper microdata: the tiny tables of Section 1 (Tables 1-3) and the
// Figure 3 example against the brute-force reference.

TEST(EncodedEquivalenceTest, Figure3MicrodataMatchesLegacy) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  SearchOptions options;
  options.k = 3;
  std::vector<LatticeNode> satisfying =
      BruteForceSatisfying(fig3, hierarchies, options);
  MinimalSetResult got = UnwrapOk(ExhaustiveSearch(fig3, hierarchies, options));
  std::sort(got.satisfying_nodes.begin(), got.satisfying_nodes.end());
  EXPECT_EQ(got.satisfying_nodes, satisfying);
  EXPECT_EQ(got.minimal_nodes, MinimalElements(satisfying));
}

TEST(EncodedEquivalenceTest, PatientTablesMatchLegacy) {
  for (int which : {1, 3}) {
    Table table =
        which == 1 ? UnwrapOk(PatientTable1()) : UnwrapOk(PatientTable3());
    // One suppression hierarchy per QI (Age, ZipCode, Sex) — enough to
    // exercise the int64 -> "*" re-typing path on Age.
    std::vector<std::shared_ptr<const AttributeHierarchy>> hs;
    for (size_t i : table.schema().KeyIndices()) {
      hs.push_back(std::make_shared<SuppressionHierarchy>(
          table.schema().attribute(i).name));
    }
    HierarchySet hierarchies =
        UnwrapOk(HierarchySet::Create(table.schema(), hs));
    SearchOptions options;
    options.k = 2;
    options.p = 2;
    std::vector<LatticeNode> satisfying =
        BruteForceSatisfying(table, hierarchies, options);
    MinimalSetResult got =
        UnwrapOk(ExhaustiveSearch(table, hierarchies, options));
    std::string what = "table " + std::to_string(which);
    std::sort(got.satisfying_nodes.begin(), got.satisfying_nodes.end());
    EXPECT_EQ(got.satisfying_nodes, satisfying) << what;
    EXPECT_EQ(got.minimal_nodes, MinimalElements(satisfying)) << what;
    // Decode every satisfying node and compare with Mask().
    EncodedTable encoded = UnwrapOk(EncodedTable::Build(table, hierarchies));
    EncodedWorkspace ws;
    for (const LatticeNode& node : got.satisfying_nodes) {
      MaskedMicrodata reference_mm =
          UnwrapOk(Mask(table, hierarchies, node, options.k));
      MaskedMicrodata fast_mm =
          UnwrapOk(DecodeMasked(encoded, node, options.k, &ws));
      EXPECT_EQ(Csv(fast_mm.table), Csv(reference_mm.table))
          << what << " node=" << SnapshotNodeKey(node);
      EXPECT_EQ(fast_mm.suppressed, reference_mm.suppressed) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded random small tables: 2-3 QIs and 1-2 confidential attributes of
// low, skewed cardinality, so QI-groups are small, suppression bites, and
// p-sensitivity fails often — at p in {1, 2, 3} and TS in {0, 2, 5}.

constexpr uint64_t kRandomTables = 32;

SyntheticData RandomTable(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t lo, size_t hi) {
    return lo + static_cast<size_t>(rng() % (hi - lo + 1));
  };
  SyntheticSpec spec;
  spec.num_rows = pick(12, 48);
  size_t num_keys = pick(2, 3);
  size_t num_confs = pick(1, 2);
  for (size_t i = 0; i < num_keys + num_confs; ++i) {
    SyntheticAttribute attribute;
    bool key = i < num_keys;
    attribute.name = std::to_string(i);
    attribute.name.insert(0, 1, key ? 'Q' : 'S');
    attribute.role =
        key ? AttributeRole::kKey : AttributeRole::kConfidential;
    attribute.cardinality = key ? pick(2, 6) : pick(2, 4);
    attribute.zipf_theta = 0.5 * static_cast<double>(pick(0, 2));
    attribute.hierarchy_levels = static_cast<int>(pick(2, 4));
    spec.attributes.push_back(attribute);
  }
  return UnwrapOk(SyntheticGenerate(spec, seed));
}

std::vector<SearchOptions> RandomConfigs(uint64_t seed) {
  std::vector<SearchOptions> configs;
  for (size_t p : {size_t{1}, size_t{2}, size_t{3}}) {
    for (size_t ts : {size_t{0}, size_t{2}, size_t{5}}) {
      SearchOptions options;
      options.p = p;
      options.k = std::max<size_t>(p, 2) + seed % 2;
      options.max_suppression = ts;
      // Cover the sweeper's worker pool and the row-sliced group-by.
      options.threads = 1 + seed % 3;
      if (seed % 4 == 0) options.min_rows_per_slice = 1;
      configs.push_back(options);
    }
  }
  return configs;
}

std::string Describe(uint64_t seed, const SearchOptions& options) {
  return "seed=" + std::to_string(seed) + " k=" + std::to_string(options.k) +
         " p=" + std::to_string(options.p) +
         " ts=" + std::to_string(options.max_suppression) +
         " threads=" + std::to_string(options.threads);
}

TEST(ReferenceOracleTest, NodeVerdictsMatchAlgorithm1OnRandomTables) {
  for (uint64_t seed = 1; seed <= kRandomTables; ++seed) {
    SyntheticData data = RandomTable(seed);
    const Table& im = data.table;
    FrequencyStats im_stats = UnwrapOk(FrequencyStats::Compute(im));
    for (const SearchOptions& options : RandomConfigs(seed)) {
      std::string what = Describe(seed, options);
      NodeSweeper sweeper(im, data.hierarchies, options);
      PSK_ASSERT_OK(sweeper.Init());
      EXPECT_EQ(sweeper.Condition1Holds(),
                options.p < 2 || options.p <= im_stats.MaxP())
          << what;
      for (const LatticeNode& node :
           GeneralizationLattice(data.hierarchies).AllNodes()) {
        std::string at = what + " node=" + SnapshotNodeKey(node);
        ReferenceVerdict reference =
            ReferenceEvaluate(im, data.hierarchies, node, options);
        // The guard, given the same masking, reaches the same verdict.
        GuardReport guard = UnwrapOk(VerifyRelease(
            reference.masked.table, im.num_rows(), DefaultPolicy(options)));
        EXPECT_EQ(guard.passed, reference.satisfied) << at;
        if (!sweeper.Condition1Holds()) {
          // Condition 1 (Theorem 1): no masking can reach this p.
          EXPECT_FALSE(reference.satisfied) << at;
          continue;
        }
        NodeEvaluation eval = UnwrapOk(sweeper.Evaluate(node));
        EXPECT_EQ(eval.satisfied, reference.satisfied) << at;
        EXPECT_EQ(eval.suppressed, reference.suppressed) << at;
        if (eval.stage != CheckStage::kKAnonymity) {
          EXPECT_EQ(eval.num_groups, reference.num_groups) << at;
        }
        if (options.p >= 2) {
          // Theorem 1: masking never raises maxP.
          EXPECT_LE(UnwrapOk(FrequencyStats::Compute(reference.masked.table))
                        .MaxP(),
                    sweeper.max_p())
              << at;
          // Theorem 2: a p-sensitive k-anonymous masking has at most
          // maxGroups(p) QI-groups.
          if (reference.satisfied) {
            EXPECT_LE(reference.num_groups, sweeper.max_groups()) << at;
          }
        }
      }
    }
  }
}

TEST(ReferenceOracleTest, EnginesMatchBruteForceOnRandomTables) {
  for (uint64_t seed = 1; seed <= kRandomTables; ++seed) {
    SyntheticData data = RandomTable(seed);
    const Table& im = data.table;
    const HierarchySet& hierarchies = data.hierarchies;
    for (const SearchOptions& options : RandomConfigs(seed)) {
      std::string what = Describe(seed, options);
      std::vector<LatticeNode> satisfying =
          BruteForceSatisfying(im, hierarchies, options);
      std::vector<LatticeNode> minimal = MinimalElements(satisfying);
      bool top_satisfies = std::binary_search(
          satisfying.begin(), satisfying.end(),
          GeneralizationLattice(hierarchies).Top());

      MinimalSetResult exhaustive =
          UnwrapOk(ExhaustiveSearch(im, hierarchies, options));
      std::sort(exhaustive.satisfying_nodes.begin(),
                exhaustive.satisfying_nodes.end());
      EXPECT_EQ(exhaustive.satisfying_nodes, satisfying) << what;
      EXPECT_EQ(exhaustive.minimal_nodes, minimal) << what;
      if (exhaustive.condition1_failed) {
        EXPECT_TRUE(satisfying.empty()) << what;
      }

      MinimalSetResult bottom_up =
          UnwrapOk(BottomUpSearch(im, hierarchies, options));
      EXPECT_EQ(bottom_up.minimal_nodes, minimal) << what;

      MinimalSetResult incognito =
          UnwrapOk(IncognitoSearch(im, hierarchies, options));
      EXPECT_EQ(incognito.minimal_nodes, minimal) << what;

      OlaOptions ola_options;
      ola_options.search = options;
      OlaResult ola = UnwrapOk(OlaSearch(im, hierarchies, ola_options));
      ExpectOlaMatchesReference(im, hierarchies, options, satisfying, ola,
                                "ola " + what);
      // OLA checks the lattice top first and bisects below it only when it
      // satisfies; then it must report a node.
      if (top_satisfies) {
        EXPECT_TRUE(ola.found) << what;
      }

      // Samarati's binary search over heights finds a node of minimal
      // height when the property is monotone; otherwise it must still find
      // one whenever the lattice top satisfies.
      SearchResult samarati =
          UnwrapOk(SamaratiSearch(im, hierarchies, options));
      if (Monotone(options)) {
        ASSERT_EQ(samarati.found, !satisfying.empty()) << what;
        if (samarati.found) {
          int lowest = satisfying.front().Height();
          for (const LatticeNode& node : satisfying) {
            lowest = std::min(lowest, node.Height());
          }
          EXPECT_EQ(samarati.node.Height(), lowest) << what;
        }
      }
      if (top_satisfies) {
        EXPECT_TRUE(samarati.found) << what;
      }
      if (samarati.found) {
        ReferenceVerdict reference =
            ReferenceEvaluate(im, hierarchies, samarati.node, options);
        EXPECT_TRUE(reference.satisfied) << what;
        EXPECT_EQ(samarati.suppressed, reference.suppressed) << what;
        EXPECT_EQ(Csv(samarati.masked), Csv(reference.masked.table)) << what;
      }
    }
  }
}

TEST(ReferenceOracleTest, AnonymizerReleasesMatchMaskOnRandomTables) {
  for (uint64_t seed = 1; seed <= kRandomTables; ++seed) {
    SyntheticData data = RandomTable(seed);
    const Table& im = data.table;
    LatticeNode top = GeneralizationLattice(data.hierarchies).Top();
    for (const SearchOptions& options : RandomConfigs(seed)) {
      std::vector<LatticeNode> satisfying =
          BruteForceSatisfying(im, data.hierarchies, options);
      std::vector<LatticeNode> minimal = MinimalElements(satisfying);
      bool top_satisfies =
          std::binary_search(satisfying.begin(), satisfying.end(), top);
      for (AnonymizationAlgorithm algorithm : kAllAlgorithms) {
        std::string what = Describe(seed, options) +
                           " algorithm=" + std::string(AlgorithmName(algorithm));
        Result<AnonymizationReport> report =
            RunAnonymizer(im, data.hierarchies, options, algorithm);
        if (!report.ok()) {
          // No fallback chain: a stage that finds nothing is the run's
          // error. A lattice engine finds nothing only when no node
          // satisfies the reference — for Samarati and OLA, which assume
          // monotonicity, only when it holds or the lattice top satisfies.
          EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
              << what << ": " << report.status().ToString();
          if (IsLattice(algorithm) &&
              (IsMinimalSet(algorithm) || Monotone(options) || top_satisfies)) {
            EXPECT_TRUE(minimal.empty()) << what;
          }
          continue;
        }
        ExpectReleaseMatchesReference(im, data.hierarchies, options,
                                      algorithm, minimal, *report, what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Intra-node parallelism (fine axis): min_rows_per_slice = 1 forces the
// row-sliced group-by wherever the engines engage it (underfilled sweeps,
// OLA's direct probes, Incognito's narrow subset waves, bottom-up's
// sequential walk). Releases and stats must stay bit-identical to the
// sequential runs at every thread count.

TEST(EncodedEquivalenceTest, SweeperEnginesMatchWithIntraNodeParallelism) {
  AdultFixture fixture(1500, 2);
  SearchOptions sequential = BaseOptions(1);
  MinimalSetResult exhaustive_base = UnwrapOk(
      ExhaustiveSearch(fixture.table, fixture.hierarchies, sequential));
  SearchResult samarati_base = UnwrapOk(
      SamaratiSearch(fixture.table, fixture.hierarchies, sequential));
  OlaOptions ola_sequential;
  ola_sequential.search = sequential;
  OlaResult ola_base = UnwrapOk(
      OlaSearch(fixture.table, fixture.hierarchies, ola_sequential));
  MinimalSetResult incognito_base = UnwrapOk(
      IncognitoSearch(fixture.table, fixture.hierarchies, sequential));
  MinimalSetResult bottom_up_base = UnwrapOk(
      BottomUpSearch(fixture.table, fixture.hierarchies, sequential));

  for (size_t threads : {size_t{2}, size_t{7}, size_t{16}}) {
    SearchOptions sliced = BaseOptions(threads);
    sliced.min_rows_per_slice = 1;
    std::string what = "threads=" + std::to_string(threads);

    MinimalSetResult exhaustive = UnwrapOk(
        ExhaustiveSearch(fixture.table, fixture.hierarchies, sliced));
    EXPECT_EQ(exhaustive.minimal_nodes, exhaustive_base.minimal_nodes)
        << what;
    EXPECT_EQ(exhaustive.satisfying_nodes, exhaustive_base.satisfying_nodes)
        << what;
    ExpectStatsEq(exhaustive.stats, exhaustive_base.stats,
                  "exhaustive sliced " + what);

    SearchResult samarati = UnwrapOk(
        SamaratiSearch(fixture.table, fixture.hierarchies, sliced));
    ASSERT_TRUE(samarati.found) << what;
    EXPECT_EQ(samarati.node, samarati_base.node) << what;
    EXPECT_EQ(WriteCsvString(samarati.masked),
              WriteCsvString(samarati_base.masked))
        << what;
    ExpectStatsEq(samarati.stats, samarati_base.stats,
                  "samarati sliced " + what);

    OlaOptions ola_options;
    ola_options.search = sliced;
    OlaResult ola = UnwrapOk(
        OlaSearch(fixture.table, fixture.hierarchies, ola_options));
    ASSERT_TRUE(ola.found) << what;
    EXPECT_EQ(ola.optimal, ola_base.optimal) << what;
    EXPECT_EQ(ola.minimal_nodes, ola_base.minimal_nodes) << what;
    EXPECT_EQ(WriteCsvString(ola.masked), WriteCsvString(ola_base.masked))
        << what;
    ExpectStatsEq(ola.stats, ola_base.stats, "ola sliced " + what);

    MinimalSetResult incognito = UnwrapOk(
        IncognitoSearch(fixture.table, fixture.hierarchies, sliced));
    EXPECT_EQ(incognito.minimal_nodes, incognito_base.minimal_nodes) << what;
    ExpectStatsEq(incognito.stats, incognito_base.stats,
                  "incognito sliced " + what);

    MinimalSetResult bottom_up = UnwrapOk(
        BottomUpSearch(fixture.table, fixture.hierarchies, sliced));
    EXPECT_EQ(bottom_up.minimal_nodes, bottom_up_base.minimal_nodes) << what;
    ExpectStatsEq(bottom_up.stats, bottom_up_base.stats,
                  "bottom-up sliced " + what);
  }
}

TEST(EncodedEquivalenceTest, AnonymizerAllAlgorithmsIntraNodeParallel) {
  AdultFixture fixture(800, 7);
  for (auto algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kIncognito,
        AnonymizationAlgorithm::kBottomUp,
        AnonymizationAlgorithm::kExhaustive, AnonymizationAlgorithm::kMondrian,
        AnonymizationAlgorithm::kGreedyCluster,
        AnonymizationAlgorithm::kOla}) {
    std::string what = "algorithm=" +
                       std::to_string(static_cast<int>(algorithm));
    AnonymizationReport reports[2];
    for (int sliced : {0, 1}) {
      Anonymizer anonymizer(fixture.table);
      for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
        anonymizer.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
      }
      anonymizer.set_k(3).set_p(2).set_max_suppression(8).set_algorithm(
          algorithm);
      if (sliced != 0) {
        anonymizer.set_threads(4).set_min_rows_per_slice(1);
      }
      reports[sliced] = UnwrapOk(anonymizer.Run());
    }
    const AnonymizationReport& base = reports[0];
    const AnonymizationReport& got = reports[1];
    EXPECT_EQ(WriteCsvString(got.masked), WriteCsvString(base.masked))
        << what;
    EXPECT_EQ(got.node, base.node) << what;
    EXPECT_EQ(got.suppressed, base.suppressed) << what;
    EXPECT_EQ(got.achieved_k, base.achieved_k) << what;
    EXPECT_EQ(got.achieved_p, base.achieved_p) << what;
    EXPECT_EQ(got.guard.passed, base.guard.passed) << what;
    EXPECT_EQ(got.guard.observed_k, base.guard.observed_k) << what;
    EXPECT_EQ(got.guard.observed_p, base.guard.observed_p) << what;
    ExpectStatsEq(got.stats, base.stats, what);
  }
}

}  // namespace
}  // namespace psk
