#include "psk/table/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "test_util.h"

namespace psk {
namespace {

Schema SmallSchema() {
  return UnwrapOk(Schema::Create(
      {{"Id", ValueType::kString, AttributeRole::kIdentifier},
       {"Age", ValueType::kInt64, AttributeRole::kKey},
       {"City", ValueType::kString, AttributeRole::kKey},
       {"Salary", ValueType::kInt64, AttributeRole::kConfidential}}));
}

Table SmallTable() {
  Table table(SmallSchema());
  EXPECT_TRUE(
      table.AppendRow({Value("a"), Value(int64_t{30}), Value("NYC"),
                       Value(int64_t{100})}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("b"), Value(int64_t{40}), Value("LA"),
                       Value(int64_t{200})}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("c"), Value(int64_t{30}), Value("NYC"),
                       Value(int64_t{300})}).ok());
  return table;
}

TEST(TableTest, EmptyTable) {
  Table table(SmallSchema());
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.num_columns(), 4u);
}

TEST(TableTest, AppendAndGet) {
  Table table = SmallTable();
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.Get(0, 1).AsInt64(), 30);
  EXPECT_EQ(table.Get(1, 2).AsString(), "LA");
  EXPECT_EQ(table.Get(2, 3).AsInt64(), 300);
}

TEST(TableTest, AppendWrongArityRejected) {
  Table table(SmallSchema());
  auto status = table.AppendRow({Value("a")});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, AppendWrongTypeRejected) {
  Table table(SmallSchema());
  auto status = table.AppendRow(
      {Value("a"), Value("not-an-int"), Value("NYC"), Value(int64_t{1})});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, NullAllowedForAnyType) {
  Table table(SmallSchema());
  PSK_ASSERT_OK(table.AppendRow(
      {Value("a"), Value::Null(), Value("NYC"), Value(int64_t{1})}));
  EXPECT_TRUE(table.Get(0, 1).is_null());
}

TEST(TableTest, SetCell) {
  Table table = SmallTable();
  table.Set(0, 3, Value(int64_t{999}));
  EXPECT_EQ(table.Get(0, 3).AsInt64(), 999);
}

TEST(TableTest, RowAndRowKey) {
  Table table = SmallTable();
  std::vector<Value> row = table.Row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].AsString(), "b");
  std::vector<Value> key = table.RowKey(1, {2, 1});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsString(), "LA");
  EXPECT_EQ(key[1].AsInt64(), 40);
}

TEST(TableTest, FilterRows) {
  Table table = SmallTable();
  Table filtered = UnwrapOk(table.FilterRows({2, 0}));
  ASSERT_EQ(filtered.num_rows(), 2u);
  EXPECT_EQ(filtered.Get(0, 0).AsString(), "c");
  EXPECT_EQ(filtered.Get(1, 0).AsString(), "a");
}

TEST(TableTest, FilterRowsOutOfRange) {
  Table table = SmallTable();
  EXPECT_FALSE(table.FilterRows({5}).ok());
}

TEST(TableTest, FilterByMask) {
  Table table = SmallTable();
  Table filtered = UnwrapOk(table.FilterByMask({true, false, true}));
  ASSERT_EQ(filtered.num_rows(), 2u);
  EXPECT_EQ(filtered.Get(0, 0).AsString(), "a");
  EXPECT_EQ(filtered.Get(1, 0).AsString(), "c");
}

TEST(TableTest, FilterByMaskWrongLength) {
  Table table = SmallTable();
  EXPECT_FALSE(table.FilterByMask({true}).ok());
}

TEST(TableTest, ProjectColumns) {
  Table table = SmallTable();
  Table projected = UnwrapOk(table.ProjectColumns({3, 1}));
  ASSERT_EQ(projected.num_columns(), 2u);
  EXPECT_EQ(projected.schema().attribute(0).name, "Salary");
  EXPECT_EQ(projected.Get(2, 0).AsInt64(), 300);
  EXPECT_EQ(projected.num_rows(), 3u);
}

TEST(TableTest, DropIdentifiers) {
  Table table = SmallTable();
  Table dropped = UnwrapOk(table.DropIdentifiers());
  EXPECT_EQ(dropped.num_columns(), 3u);
  EXPECT_FALSE(dropped.schema().Contains("Id"));
  EXPECT_EQ(dropped.num_rows(), 3u);
  // Roles of surviving attributes preserved.
  EXPECT_EQ(dropped.schema().KeyIndices(), (std::vector<size_t>{0, 1}));
}

TEST(TableTest, DistinctCount) {
  Table table = SmallTable();
  EXPECT_EQ(table.DistinctCount(1), 2u);  // 30, 40
  EXPECT_EQ(table.DistinctCount(2), 2u);  // NYC, LA
  EXPECT_EQ(table.DistinctCount(3), 3u);
}

TEST(TableTest, ColumnView) {
  Table table = SmallTable();
  Table::ColumnView ages = table.column(1);
  ASSERT_EQ(ages.size(), 3u);
  EXPECT_EQ(ages[0].AsInt64(), 30);
  // Range-for dereferences the interned store.
  size_t count = 0;
  for (const Value& v : ages) {
    EXPECT_FALSE(v.is_null());
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(TableTest, DisplayStringTruncates) {
  Table table = SmallTable();
  std::string display = table.ToDisplayString(2);
  EXPECT_NE(display.find("more rows"), std::string::npos);
  EXPECT_NE(display.find("Age"), std::string::npos);
}

// Appending one row per chunk must reallocate the id columns O(log n)
// times, not once per chunk (which made small-chunk ingest quadratic).
TEST(TableTest, SmallChunkAppendsReallocateLogarithmically) {
  Table table(SmallSchema());
  IngestChunk chunk;
  size_t capacity_changes = 0;
  size_t capacity = table.column_ids(0).capacity();
  for (int64_t i = 0; i < 10000; ++i) {
    chunk.Reset(table.schema(), 1);
    chunk.columns[0].push_back(Value("id" + std::to_string(i % 50)));
    chunk.columns[1].push_back(Value(i % 90));
    chunk.columns[2].push_back(Value("NYC"));
    chunk.columns[3].push_back(Value(i));
    ASSERT_TRUE(table.AppendChunk(&chunk).ok());
    if (table.column_ids(0).capacity() != capacity) {
      capacity = table.column_ids(0).capacity();
      ++capacity_changes;
    }
  }
  ASSERT_EQ(table.num_rows(), 10000u);
  EXPECT_EQ(table.Get(9999, 3).AsInt64(), 9999);
  // Growth by half per step reaches 10k rows in about 23 steps.
  EXPECT_LE(capacity_changes, 30u);
  table.ShrinkToFit();
  EXPECT_EQ(table.column_ids(0).capacity(), 10000u);
  EXPECT_EQ(table.Get(9999, 3).AsInt64(), 9999);
}

// A chunk column is dictionary-coded: push_code repeats an entry, and
// AppendChunk interns each entry once. push_back never merges entries.
TEST(TableTest, IngestColumnCodesRepeatEntries) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"City", ValueType::kString, AttributeRole::kKey},
       {"Score", ValueType::kDouble, AttributeRole::kConfidential}}));
  IngestChunk chunk;
  chunk.Reset(schema, 4);
  chunk.columns[0].push_back(Value("NYC"));
  chunk.columns[0].push_back(Value("LA"));
  chunk.columns[0].push_code(0);
  chunk.columns[0].push_back(Value("NYC"));
  double nan = std::nan("");
  for (int i = 0; i < 4; ++i) chunk.columns[1].push_back(Value(nan));
  EXPECT_EQ(chunk.num_rows(), 4u);
  EXPECT_EQ(chunk.columns[0].values().size(), 3u);
  EXPECT_EQ(chunk.columns[0][2].AsString(), "NYC");
  std::vector<std::string> cities;
  for (const Value& v : chunk.columns[0]) cities.push_back(v.AsString());
  EXPECT_EQ(cities, (std::vector<std::string>{"NYC", "LA", "NYC", "NYC"}));
  EXPECT_EQ(chunk.ApproxBytes(),
            8 * sizeof(uint32_t) + 7 * (sizeof(Value) + 16));

  Table table(schema);
  ASSERT_TRUE(table.AppendChunk(&chunk).ok());
  EXPECT_EQ(chunk.num_rows(), 0u);
  EXPECT_EQ(table.GetId(0, 0), table.GetId(2, 0));
  EXPECT_EQ(table.GetId(0, 0), table.GetId(3, 0));
  EXPECT_NE(table.GetId(0, 0), table.GetId(1, 0));
  // A NaN equals nothing: every NaN cell keeps an id of its own.
  EXPECT_EQ(table.DistinctCount(0), 2u);
  EXPECT_EQ(table.DistinctCount(1), 4u);
}

}  // namespace
}  // namespace psk
