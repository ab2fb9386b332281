// Equivalence suite for streaming chunked ingest: a table ingested in
// chunks — any chunk size, from a string or a file — must be
// byte-identical to the oracle, one OpenString read of every row in a
// single NextChunk (the same record parser with no chunk or file-block
// boundaries), and every downstream consumer (all seven engines through
// Anonymizer, the guard, SearchStats) must be unable to tell the
// difference.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/common/memory_budget.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/table/csv.h"
#include "psk/table/table.h"
#include "test_util.h"

namespace psk {
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

struct Fixture {
  Table table;
  HierarchySet hierarchies;
  std::string csv;

  explicit Fixture(size_t n = 600, uint64_t seed = 11)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))),
        csv(WriteCsvString(table)) {}
};

// The oracle: every row of `text` parsed by one NextChunk over an
// in-memory source.
Result<Table> ReadAllRowsAtOnce(std::string_view text, const Schema& schema) {
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenString(text, schema));
  Table table(schema);
  IngestChunk chunk;
  PSK_ASSIGN_OR_RETURN(
      size_t rows,
      reader.NextChunk(std::numeric_limits<size_t>::max(), &chunk));
  if (rows > 0) PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
  return table;
}

// The chunk sizes of the equivalence matrix: degenerate (1), prime and
// unaligned (7), the default-ish power of two (1024), and one chunk
// covering the whole table.
const size_t kChunkSizes[] = {1, 7, 1024, size_t{1} << 30};

// ---------------------------------------------------------------------------
// Table-level byte identity.

TEST(ChunkedIngestTest, ChunkedCsvMatchesEagerOracleByteForByte) {
  Fixture fixture;
  Table oracle =
      UnwrapOk(ReadAllRowsAtOnce(fixture.csv, fixture.table.schema()));
  EXPECT_EQ(WriteCsvString(oracle), fixture.csv);
  for (size_t chunk_rows : kChunkSizes) {
    CsvOptions chunked;
    chunked.chunk_rows = chunk_rows;
    Table got = UnwrapOk(ReadCsvString(fixture.csv, fixture.table.schema(),
                                       chunked));
    EXPECT_EQ(WriteCsvString(got), fixture.csv)
        << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(got.num_rows(), oracle.num_rows());
  }
}

TEST(ChunkedIngestTest, FileAndStringSourcesAgree) {
  Fixture fixture(200, 3);
  std::string path = testing::TempDir() + "/chunked_ingest_src.csv";
  ASSERT_TRUE(WriteCsvFile(fixture.table, path).ok());
  Table oracle =
      UnwrapOk(ReadAllRowsAtOnce(fixture.csv, fixture.table.schema()));
  for (size_t chunk_rows : kChunkSizes) {
    CsvOptions options;
    options.chunk_rows = chunk_rows;
    Table from_file =
        UnwrapOk(ReadCsvFile(path, fixture.table.schema(), options));
    EXPECT_EQ(WriteCsvString(from_file), WriteCsvString(oracle))
        << "chunk_rows=" << chunk_rows;
  }
  std::remove(path.c_str());
}

TEST(ChunkedIngestTest, ErrorLinesMatchTheEagerOracle) {
  Fixture fixture(20, 4);
  ASSERT_EQ(fixture.table.schema().num_attributes(), 8u);
  // After the header and the first data row, i.e. on line 3: a ragged
  // record, and (separately) an Age that is not an integer.
  size_t cut = fixture.csv.find('\n', fixture.csv.find('\n') + 1);
  ASSERT_NE(cut, std::string::npos);
  std::string ragged = fixture.csv;
  ragged.insert(cut + 1, "this,row,is,hopelessly,short\n");
  std::string bad_age = fixture.csv;
  bad_age.insert(cut + 1, "old,,,,,,,\n");
  struct Case {
    const std::string* text;
    const char* message;
  };
  const Case cases[] = {
      {&ragged, "CSV line 3 has 5 fields; expected 8"},
      {&bad_age,
       "CSV line 3, column 'Age': trailing characters in integer: 'old'"},
  };
  for (const Case& c : cases) {
    Result<Table> oracle = ReadAllRowsAtOnce(*c.text, fixture.table.schema());
    ASSERT_FALSE(oracle.ok());
    EXPECT_EQ(oracle.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(oracle.status().message(), c.message);
    for (size_t chunk_rows : kChunkSizes) {
      CsvOptions chunked;
      chunked.chunk_rows = chunk_rows;
      Result<Table> got =
          ReadCsvString(*c.text, fixture.table.schema(), chunked);
      ASSERT_FALSE(got.ok()) << "chunk_rows=" << chunk_rows;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(got.status().message(), c.message)
          << "chunk_rows=" << chunk_rows;
    }
  }
}

// A zero chunk size would read nothing; both readers refuse it up front.
TEST(ChunkedIngestTest, ZeroChunkRowsIsRejected) {
  Fixture fixture(20, 5);
  CsvOptions options;
  options.chunk_rows = 0;
  Result<Table> from_string =
      ReadCsvString(fixture.csv, fixture.table.schema(), options);
  ASSERT_FALSE(from_string.ok());
  EXPECT_EQ(from_string.status().code(), StatusCode::kInvalidArgument);
  std::string path = testing::TempDir() + "/chunked_ingest_zero.csv";
  ASSERT_TRUE(WriteCsvFile(fixture.table, path).ok());
  Result<Table> from_file = ReadCsvFile(path, fixture.table.schema(), options);
  ASSERT_FALSE(from_file.ok());
  EXPECT_EQ(from_file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(from_file.status().message(), from_string.status().message());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Full-pipeline equivalence matrix: 7 engines x chunk sizes, comparing
// release bytes, SearchStats, scorecard and the guard's verdict.

TEST(ChunkedIngestTest, AllEnginesMatchEagerAcrossChunkSizes) {
  Fixture fixture;
  auto run = [&](const Table& input, AnonymizationAlgorithm algorithm) {
    Anonymizer anonymizer(input);
    for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
    }
    anonymizer.set_k(3).set_p(2).set_max_suppression(8).set_algorithm(
        algorithm);
    return UnwrapOk(anonymizer.Run());
  };

  Table oracle_table =
      UnwrapOk(ReadAllRowsAtOnce(fixture.csv, fixture.table.schema()));

  for (auto algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kIncognito,
        AnonymizationAlgorithm::kBottomUp,
        AnonymizationAlgorithm::kExhaustive, AnonymizationAlgorithm::kMondrian,
        AnonymizationAlgorithm::kGreedyCluster,
        AnonymizationAlgorithm::kOla}) {
    AnonymizationReport want = run(oracle_table, algorithm);
    for (size_t chunk_rows : kChunkSizes) {
      std::string what =
          "algorithm=" + std::to_string(static_cast<int>(algorithm)) +
          " chunk_rows=" + std::to_string(chunk_rows);
      CsvOptions chunked;
      chunked.chunk_rows = chunk_rows;
      Table input = UnwrapOk(
          ReadCsvString(fixture.csv, fixture.table.schema(), chunked));
      AnonymizationReport got = run(input, algorithm);
      EXPECT_EQ(WriteCsvString(got.masked), WriteCsvString(want.masked))
          << what;
      EXPECT_EQ(got.node, want.node) << what;
      EXPECT_EQ(got.suppressed, want.suppressed) << what;
      EXPECT_EQ(got.achieved_k, want.achieved_k) << what;
      EXPECT_EQ(got.achieved_p, want.achieved_p) << what;
      EXPECT_EQ(got.precision, want.precision) << what;
      EXPECT_EQ(got.discernibility, want.discernibility) << what;
      EXPECT_EQ(got.algorithm_used, want.algorithm_used) << what;
      EXPECT_EQ(got.guard.passed, want.guard.passed) << what;
      EXPECT_EQ(got.guard.observed_k, want.guard.observed_k) << what;
      EXPECT_EQ(got.guard.observed_p, want.guard.observed_p) << what;
      EXPECT_EQ(got.guard.suppressed, want.guard.suppressed) << what;
      ExpectStatsEq(got.stats, want.stats, what);
    }
  }
}

// ---------------------------------------------------------------------------
// Anonymizer::Ingest seam: chunk-fed construction equals table-fed.

TEST(ChunkedIngestTest, AnonymizerIngestMatchesEagerConstruction) {
  Fixture fixture(400, 8);
  Anonymizer eager(fixture.table);
  for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
    eager.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
  }
  eager.set_k(3).set_p(2).set_max_suppression(8);
  AnonymizationReport want = UnwrapOk(eager.Run());

  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    Anonymizer streaming(fixture.table.schema());
    RunBudget budget;
    budget.memory = std::make_shared<MemoryBudget>();
    streaming.set_budget(budget);
    streaming.ReserveRows(fixture.table.num_rows());
    CsvChunkReader reader = UnwrapOk(CsvChunkReader::OpenString(
        fixture.csv, fixture.table.schema()));
    IngestChunk chunk;
    for (;;) {
      size_t rows = UnwrapOk(reader.NextChunk(chunk_rows, &chunk));
      if (rows == 0) break;
      ASSERT_TRUE(streaming.Ingest(&chunk).ok());
    }
    EXPECT_EQ(streaming.num_ingested_rows(), fixture.table.num_rows());
    // Ingest kept the input footprint charged for the scheduler to see.
    EXPECT_GT(budget.memory->bytes_used(), 0u);
    for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
      streaming.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
    }
    streaming.set_k(3).set_p(2).set_max_suppression(8);
    AnonymizationReport got = UnwrapOk(streaming.Run());
    EXPECT_EQ(WriteCsvString(got.masked), WriteCsvString(want.masked))
        << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(got.guard.passed, want.guard.passed);
  }
}

TEST(ChunkedIngestTest, IngestFailsWhenInputExceedsHardQuota) {
  Fixture fixture(400, 9);
  Anonymizer streaming(fixture.table.schema());
  RunBudget budget;
  budget.memory = std::make_shared<MemoryBudget>();
  budget.memory->set_hard_limit(1024);  // far below the input's footprint
  streaming.set_budget(budget);
  CsvChunkReader reader = UnwrapOk(
      CsvChunkReader::OpenString(fixture.csv, fixture.table.schema()));
  IngestChunk chunk;
  Status failed = Status::OK();
  for (;;) {
    size_t rows = UnwrapOk(reader.NextChunk(64, &chunk));
    if (rows == 0) break;
    failed = streaming.Ingest(&chunk);
    if (!failed.ok()) break;
  }
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Streaming synthetic generator: chunk sizing never changes the data.

TEST(ChunkedIngestTest, SyntheticChunkGeneratorMatchesEagerGenerate) {
  SyntheticSpec spec = MakeUniformSpec(500, 3, 8, 1, 12, 0.5);
  SyntheticData want = UnwrapOk(SyntheticGenerate(spec, 42));
  std::string want_csv = WriteCsvString(want.table);
  for (size_t chunk_rows : kChunkSizes) {
    SyntheticChunkGenerator gen =
        UnwrapOk(SyntheticChunkGenerator::Create(spec, 42));
    Table table(gen.schema());
    IngestChunk chunk;
    for (;;) {
      size_t rows = UnwrapOk(gen.NextChunk(chunk_rows, &chunk));
      if (rows == 0) break;
      ASSERT_TRUE(table.AppendChunk(&chunk).ok());
    }
    EXPECT_EQ(gen.rows_generated(), spec.num_rows);
    EXPECT_EQ(WriteCsvString(table), want_csv)
        << "chunk_rows=" << chunk_rows;
  }
}

// ---------------------------------------------------------------------------
// CSV ingest budget: metered reads fail cleanly over quota.

TEST(ChunkedIngestTest, CsvIngestBudgetRefusesOverQuotaReads) {
  Fixture fixture(400, 10);
  CsvOptions options;
  options.chunk_rows = 64;
  options.ingest_budget = std::make_shared<MemoryBudget>();
  options.ingest_budget->set_hard_limit(512);
  Result<Table> got =
      ReadCsvString(fixture.csv, fixture.table.schema(), options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  // An ample budget reads fine and releases what it charged.
  options.ingest_budget = std::make_shared<MemoryBudget>();
  options.ingest_budget->set_hard_limit(64 * 1024 * 1024);
  Table table = UnwrapOk(
      ReadCsvString(fixture.csv, fixture.table.schema(), options));
  EXPECT_EQ(WriteCsvString(table), fixture.csv);
  EXPECT_GT(options.ingest_budget->high_water(), 0u);
}

}  // namespace
}  // namespace psk
