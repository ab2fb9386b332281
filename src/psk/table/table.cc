#include "psk/table/table.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "psk/common/check.h"

namespace psk {

void IngestChunk::Reset(const Schema& schema, size_t rows_hint) {
  types.resize(schema.num_attributes());
  columns.resize(schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    types[i] = schema.attribute(i).type;
    columns[i].clear();
    columns[i].reserve(rows_hint);
  }
}

void IngestChunk::Clear() {
  for (auto& column : columns) column.clear();
}

size_t IngestChunk::ApproxBytes() const {
  constexpr size_t kEntryBytes = sizeof(Value) + 16;
  size_t bytes = 0;
  for (const IngestColumn& column : columns) {
    bytes += column.size() * sizeof(uint32_t) +
             column.values().size() * kEntryBytes;
  }
  return bytes;
}

Table::Table(Schema schema)
    : schema_(std::move(schema)), store_(std::make_shared<ValueStore>()) {
  columns_.resize(schema_.num_attributes());
}

Table::Table(Schema schema, std::shared_ptr<ValueStore> store)
    : schema_(std::move(schema)), store_(std::move(store)) {
  PSK_CHECK(store_ != nullptr);
  columns_.resize(schema_.num_attributes());
}

Result<Table> Table::FromColumns(Schema schema,
                                 std::shared_ptr<ValueStore> store,
                                 std::vector<std::vector<ValueId>> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " does not match schema attribute count " +
        std::to_string(schema.num_attributes()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& column : columns) {
    if (column.size() != rows) {
      return Status::InvalidArgument("ragged id columns");
    }
  }
  Table out(std::move(schema), std::move(store));
  out.columns_ = std::move(columns);
  out.num_rows_ = rows;
  return out;
}

void Table::ReserveRows(size_t additional_rows) {
  for (auto& column : columns_) {
    column.reserve(num_rows_ + additional_rows);
  }
}

void Table::ShrinkToFit() {
  for (auto& column : columns_) column.shrink_to_fit();
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; schema has " +
        std::to_string(schema_.num_attributes()) + " attributes");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attribute(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.attribute(i).name +
          "': expected " + std::string(ValueTypeToString(
                               schema_.attribute(i).type)) +
          ", got " + std::string(ValueTypeToString(row[i].type())));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].push_back(store_->Intern(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendChunk(IngestChunk* chunk) {
  if (chunk->columns.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "chunk has " + std::to_string(chunk->columns.size()) +
        " columns; schema has " + std::to_string(schema_.num_attributes()) +
        " attributes");
  }
  size_t rows = chunk->num_rows();
  // One validation per column per chunk: the producer's element type tag
  // must match the schema, and all columns must be the same length. The
  // per-cell type branch of AppendRow is skipped in release builds.
  for (size_t c = 0; c < chunk->columns.size(); ++c) {
    if (chunk->types[c] != schema_.attribute(c).type) {
      return Status::InvalidArgument(
          "type mismatch in chunk column '" + schema_.attribute(c).name +
          "': expected " +
          std::string(ValueTypeToString(schema_.attribute(c).type)) +
          ", got " + std::string(ValueTypeToString(chunk->types[c])));
    }
    if (chunk->columns[c].size() != rows) {
      return Status::InvalidArgument(
          "ragged chunk: column '" + schema_.attribute(c).name + "' has " +
          std::to_string(chunk->columns[c].size()) + " cells; expected " +
          std::to_string(rows));
    }
  }
  // Grow by at least half, so a run of small chunks reallocates the id
  // columns O(log rows) times rather than once per chunk.
  size_t needed = num_rows_ + rows;
  std::vector<ValueId> entry_ids;
  for (size_t c = 0; c < chunk->columns.size(); ++c) {
    std::vector<ValueId>& ids = columns_[c];
    if (needed > ids.capacity()) {
      ids.reserve(std::max(needed, ids.capacity() + ids.capacity() / 2));
    }
    const IngestColumn& column = chunk->columns[c];
    const std::vector<Value>& entries = column.values();
    entry_ids.resize(entries.size());
    for (size_t e = 0; e < entries.size(); ++e) {
      PSK_DCHECK(entries[e].is_null() || entries[e].type() == chunk->types[c]);
      entry_ids[e] = store_->Intern(entries[e]);
    }
    for (uint32_t code : column.codes()) ids.push_back(entry_ids[code]);
  }
  num_rows_ += rows;
  chunk->Clear();
  return Status::OK();
}

void Table::Set(size_t row, size_t col, Value value) {
  PSK_CHECK(col < columns_.size() && row < num_rows_);
  columns_[col][row] = store_->Intern(value);
}

const std::vector<ValueId>& Table::column_ids(size_t col) const {
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  return columns_[col];
}

Table::ColumnView Table::column(size_t col) const {
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  return ColumnView(store_.get(), &columns_[col]);
}

std::vector<Value> Table::Row(size_t row) const {
  PSK_CHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const auto& column : columns_) {
    values.push_back(store_->Get(column[row]));
  }
  return values;
}

std::vector<Value> Table::RowKey(
    size_t row, const std::vector<size_t>& col_indices) const {
  PSK_DCHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(col_indices.size());
  for (size_t col : col_indices) {
    PSK_DCHECK(col < columns_.size());
    values.push_back(store_->Get(columns_[col][row]));
  }
  return values;
}

Result<Table> Table::FilterRows(const std::vector<size_t>& row_indices) const {
  Table out(schema_, store_);
  for (auto& column : out.columns_) column.reserve(row_indices.size());
  for (size_t row : row_indices) {
    if (row >= num_rows_) {
      return Status::OutOfRange("row index out of range: " +
                                std::to_string(row));
    }
    for (size_t col = 0; col < columns_.size(); ++col) {
      out.columns_[col].push_back(columns_[col][row]);
    }
  }
  out.num_rows_ = row_indices.size();
  return out;
}

Result<Table> Table::FilterByMask(const std::vector<bool>& keep) const {
  if (keep.size() != num_rows_) {
    return Status::InvalidArgument("mask length does not match row count");
  }
  std::vector<size_t> row_indices;
  for (size_t row = 0; row < num_rows_; ++row) {
    if (keep[row]) row_indices.push_back(row);
  }
  return FilterRows(row_indices);
}

Result<Table> Table::ProjectColumns(
    const std::vector<size_t>& col_indices) const {
  PSK_ASSIGN_OR_RETURN(Schema projected, schema_.Project(col_indices));
  Table out(std::move(projected), store_);
  for (size_t i = 0; i < col_indices.size(); ++i) {
    out.columns_[i] = columns_[col_indices[i]];
  }
  out.num_rows_ = num_rows_;
  return out;
}

Result<Table> Table::DropIdentifiers() const {
  std::vector<size_t> kept;
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (schema_.attribute(i).role != AttributeRole::kIdentifier) {
      kept.push_back(i);
    }
  }
  return ProjectColumns(kept);
}

size_t Table::DistinctCount(size_t col) const {
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  // The store already deduplicates by value: a column's distinct values
  // are exactly its distinct ids. Counting scans uint32 ids, never
  // hashing a Value (or touching a string payload).
  std::unordered_set<ValueId> seen;
  seen.reserve(std::min(num_rows_, size_t{1} << 20));
  for (ValueId id : columns_[col]) seen.insert(id);
  return seen.size();
}

size_t Table::ApproxBytes() const {
  size_t bytes = store_ != nullptr ? store_->ApproxBytes() : 0;
  for (const auto& column : columns_) {
    bytes += column.capacity() * sizeof(ValueId);
  }
  return bytes;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  size_t rows_to_show = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(rows_to_show);
  for (size_t col = 0; col < columns_.size(); ++col) {
    widths[col] = schema_.attribute(col).name.size();
  }
  for (size_t row = 0; row < rows_to_show; ++row) {
    cells[row].resize(columns_.size());
    for (size_t col = 0; col < columns_.size(); ++col) {
      cells[row][col] = Get(row, col).ToString();
      widths[col] = std::max(widths[col], cells[row][col].size());
    }
  }
  std::ostringstream os;
  for (size_t col = 0; col < columns_.size(); ++col) {
    if (col > 0) os << " | ";
    std::string name = schema_.attribute(col).name;
    name.resize(widths[col], ' ');
    os << name;
  }
  os << '\n';
  for (size_t col = 0; col < columns_.size(); ++col) {
    if (col > 0) os << "-+-";
    os << std::string(widths[col], '-');
  }
  os << '\n';
  for (size_t row = 0; row < rows_to_show; ++row) {
    for (size_t col = 0; col < columns_.size(); ++col) {
      if (col > 0) os << " | ";
      std::string cell = cells[row][col];
      cell.resize(widths[col], ' ');
      os << cell;
    }
    os << '\n';
  }
  if (rows_to_show < num_rows_) {
    os << "... (" << num_rows_ - rows_to_show << " more rows)\n";
  }
  return os.str();
}

uint32_t EncodeColumnIds(const Table& table, size_t col, bool nan_never_equal,
                         std::vector<uint32_t>* codes,
                         std::vector<Value>* representatives) {
  // Marks an id whose value is a NaN double: every row carrying it takes
  // the next fresh code.
  constexpr uint32_t kNeverEqual = UINT32_MAX;
  const std::vector<ValueId>& ids = table.column_ids(col);
  const ValueStore& store = *table.store();
  size_t num_rows = ids.size();
  codes->resize(num_rows);
  std::unordered_map<ValueId, uint32_t> dictionary;
  dictionary.reserve(std::min(num_rows, size_t{1} << 20));
  uint32_t next = 0;
  for (size_t row = 0; row < num_rows; ++row) {
    auto [it, inserted] = dictionary.try_emplace(ids[row], next);
    if (inserted && nan_never_equal) {
      const Value& value = store.Get(ids[row]);
      if (value.type() == ValueType::kDouble && std::isnan(value.AsDouble())) {
        it->second = kNeverEqual;
      }
    }
    uint32_t code = it->second == kNeverEqual ? next : it->second;
    if (code == next) {
      ++next;
      if (representatives != nullptr) {
        representatives->push_back(store.Get(ids[row]));
      }
    }
    (*codes)[row] = code;
  }
  return next;
}

}  // namespace psk
