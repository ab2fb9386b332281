#ifndef PSK_TABLE_TABLE_H_
#define PSK_TABLE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/schema.h"
#include "psk/table/value.h"
#include "psk/table/value_store.h"

namespace psk {

/// One column of an IngestChunk, dictionary-coded: the entries (Values) a
/// producer resolved, plus one uint32 code per row naming its entry.
///
/// push_back appends a fresh entry and a row pointing at it — no dedup,
/// so a cell-at-a-time producer costs what a std::vector<Value> did.
/// A producer that knows a cell repeats an earlier one (the CSV reader's
/// per-column text memo) appends only the code with push_code, and
/// Table::AppendChunk then interns each entry once instead of each cell.
/// Reads (operator[], iteration) yield the row's `const Value&`.
class IngestColumn {
 public:
  class iterator {
   public:
    using value_type = Value;
    using reference = const Value&;
    using difference_type = std::ptrdiff_t;
    iterator(const Value* values, const uint32_t* code)
        : values_(values), code_(code) {}
    const Value& operator*() const { return values_[*code_]; }
    iterator& operator++() {
      ++code_;
      return *this;
    }
    bool operator==(const iterator& o) const { return code_ == o.code_; }
    bool operator!=(const iterator& o) const { return code_ != o.code_; }

   private:
    const Value* values_;
    const uint32_t* code_;
  };

  void push_back(const Value& value) {
    codes_.push_back(static_cast<uint32_t>(values_.size()));
    values_.push_back(value);
  }
  void push_back(Value&& value) {
    codes_.push_back(static_cast<uint32_t>(values_.size()));
    values_.push_back(std::move(value));
  }
  /// Appends a row repeating entry `code` (< values().size()).
  void push_code(uint32_t code) { codes_.push_back(code); }

  /// Rows in the column.
  size_t size() const { return codes_.size(); }
  /// Reserves `rows` codes. Entries grow on demand: a memoizing producer
  /// holds far fewer of them than rows.
  void reserve(size_t rows) { codes_.reserve(rows); }
  /// Drops rows and entries, keeping both buffers for refill.
  void clear() {
    codes_.clear();
    values_.clear();
  }

  const Value& operator[](size_t row) const { return values_[codes_[row]]; }
  iterator begin() const { return iterator(values_.data(), codes_.data()); }
  iterator end() const {
    return iterator(values_.data(), codes_.data() + codes_.size());
  }

  /// The entries, in the order they were appended.
  const std::vector<Value>& values() const { return values_; }
  /// One entry index per row.
  const std::vector<uint32_t>& codes() const { return codes_; }

 private:
  std::vector<uint32_t> codes_;
  std::vector<Value> values_;
};

/// One columnar batch of rows in flight between a streaming producer (CSV
/// chunk reader, synthetic generator) and Table::AppendChunk. The chunk
/// carries a per-column element type tag set by the producer; AppendChunk
/// validates the tag against the schema once per column, trusting the
/// producer that every cell is null or of the tagged type (re-checked per
/// entry only in debug builds) — the per-cell type branch was the ingest
/// hot-loop cost at 10M rows.
struct IngestChunk {
  /// Element type of each column; cells must be null or this type.
  std::vector<ValueType> types;
  /// columns[c] holds the chunk's cells for attribute c, all of equal
  /// length, in schema attribute order.
  std::vector<IngestColumn> columns;

  size_t num_rows() const { return columns.empty() ? 0 : columns[0].size(); }
  size_t num_columns() const { return columns.size(); }

  /// Shapes the chunk for `schema` with every column empty, reserving
  /// `rows_hint` codes per column. Reusable across refills.
  void Reset(const Schema& schema, size_t rows_hint);
  /// Drops the cells but keeps the column buffers for refill.
  void Clear();
  /// What the chunk holds: 4 bytes per code plus a nominal
  /// sizeof(Value) + 16 per entry (the stable-accounting convention of
  /// EncodedTable::ApproxBytes).
  size_t ApproxBytes() const;
};

/// Columnar in-memory microdata table over an interned value store.
///
/// A Table owns a Schema and one id column per attribute; every cell is a
/// 32-bit ValueId into the table's ValueStore, which holds each distinct
/// value exactly once. All columns have the same length and rows are
/// addressed by index. Tables remain value types (copyable); masking
/// operations produce new tables rather than mutating the input,
/// mirroring the paper's IM -> MM pipeline. Derived tables (filters,
/// projections, decodes) share the parent's store, so row-level
/// operations copy 4-byte ids, never strings.
class Table {
 public:
  /// An empty table over `schema` with its own value store.
  explicit Table(Schema schema);
  /// An empty table over `schema` sharing `store` (derived tables: the
  /// ids already interned by the sibling remain valid and dedup'd).
  Table(Schema schema, std::shared_ptr<ValueStore> store);
  Table() = default;

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// Adopts pre-built id columns over `store` — the columnar assembly
  /// path for derived-table producers (encoded decode, chunked
  /// suppression) that gather ids directly instead of appending Value
  /// rows. Columns must be parallel (one per schema attribute, equal
  /// lengths) and every id must come from `store`; cell/type agreement is
  /// the producer's contract (like AppendChunk's tagged columns).
  static Result<Table> FromColumns(Schema schema,
                                   std::shared_ptr<ValueStore> store,
                                   std::vector<std::vector<ValueId>> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// The interned store backing this table's cells.
  const std::shared_ptr<ValueStore>& store() const { return store_; }

  /// Capacity hint: reserves id-column capacity for `additional_rows`
  /// more rows, so a streaming ingest loop (AppendChunk / AppendRow)
  /// never reallocates mid-chunk.
  void ReserveRows(size_t additional_rows);

  /// Releases id-column capacity beyond num_rows(). AppendChunk grows
  /// capacity geometrically, so a producer that has appended its last
  /// chunk may trim the slack once.
  void ShrinkToFit();

  /// Appends one row; `row` must have one value per attribute. (Value/type
  /// agreement is validated: each value must be null or match the declared
  /// attribute type.)
  Status AppendRow(std::vector<Value> row);

  /// Appends a columnar chunk. Type agreement is validated once per
  /// column per chunk against the chunk's type tags (per-entry re-check
  /// in debug builds only); all columns must have equal length. Each
  /// chunk entry is interned once, then every row's id is one lookup by
  /// its code. Id capacity grows by at least half per reallocation, so a
  /// long run of small chunks appends in linear time. The chunk's cells
  /// are consumed; its buffers survive for Clear()+refill.
  Status AppendChunk(IngestChunk* chunk);

  /// Cell accessors; indices are bounds-checked with PSK_CHECK in debug
  /// builds and trusted in release hot paths. The reference is stable for
  /// the lifetime of the store (shared by all derived tables).
  const Value& Get(size_t row, size_t col) const {
    return store_->Get(columns_[col][row]);
  }
  void Set(size_t row, size_t col, Value value);

  /// Interned id of one cell. Equal cells of the same column always carry
  /// equal ids; ids are store-assignment-order dependent, so consumers
  /// may compare ids within a column or dereference them, never order by
  /// them.
  ValueId GetId(size_t row, size_t col) const { return columns_[col][row]; }

  /// Whole-column id view — the O(rows)-over-uint32 fast path for
  /// distinct counting, frequency stats and dictionary encoding.
  const std::vector<ValueId>& column_ids(size_t col) const;

  /// Read-only view of one column as Values: iterable (range-for yields
  /// `const Value&`), sized, and indexable. Dereferences the interned
  /// store per access.
  class ColumnView {
   public:
    class iterator {
     public:
      using value_type = Value;
      using reference = const Value&;
      using difference_type = std::ptrdiff_t;
      iterator(const ValueStore* store, const ValueId* id)
          : store_(store), id_(id) {}
      const Value& operator*() const { return store_->Get(*id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      bool operator==(const iterator& o) const { return id_ == o.id_; }
      bool operator!=(const iterator& o) const { return id_ != o.id_; }

     private:
      const ValueStore* store_;
      const ValueId* id_;
    };

    ColumnView(const ValueStore* store, const std::vector<ValueId>* ids)
        : store_(store), ids_(ids) {}
    size_t size() const { return ids_->size(); }
    const Value& operator[](size_t row) const {
      return store_->Get((*ids_)[row]);
    }
    iterator begin() const { return iterator(store_, ids_->data()); }
    iterator end() const {
      return iterator(store_, ids_->data() + ids_->size());
    }

   private:
    const ValueStore* store_;
    const std::vector<ValueId>* ids_;
  };

  /// Whole-column view (dereferencing). For id-level access use
  /// column_ids().
  ColumnView column(size_t col) const;

  /// Materializes row `row` as a vector of values.
  std::vector<Value> Row(size_t row) const;

  /// Values of row `row` restricted to `col_indices`, in that order.
  std::vector<Value> RowKey(size_t row,
                            const std::vector<size_t>& col_indices) const;

  /// New table with only the rows whose index appears in `row_indices`
  /// (in the given order). Shares this table's store: copies ids only.
  Result<Table> FilterRows(const std::vector<size_t>& row_indices) const;

  /// New table with only the rows for which keep[i] is true. `keep` must
  /// have num_rows() entries.
  Result<Table> FilterByMask(const std::vector<bool>& keep) const;

  /// New table with a subset of columns (projection). Shares the store.
  Result<Table> ProjectColumns(const std::vector<size_t>& col_indices) const;

  /// New table without the identifier attributes — the first masking step
  /// in the paper (§2): identifiers are always removed from released data.
  Result<Table> DropIdentifiers() const;

  /// Number of distinct values in column `col` (nulls count as one value).
  /// Counts interned ids — O(rows) over uint32, no Value is hashed.
  size_t DistinctCount(size_t col) const;

  /// Approximate heap footprint: the id columns plus the value store.
  /// Tables sharing one store each report the full store (the seam
  /// charges one table per job, so no double counting in practice).
  size_t ApproxBytes() const;

  /// Pretty-prints up to `max_rows` rows as an aligned text grid (for
  /// examples and debugging).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::shared_ptr<ValueStore> store_;
  std::vector<std::vector<ValueId>> columns_;
  size_t num_rows_ = 0;
};

/// Dictionary-encodes column `col` of `table` into dense uint32 codes
/// numbered by first occurrence in row order, and returns the number of
/// codes. Cells are interned, so within a typed column equal Values carry
/// equal ids: the densification is one uint32 -> uint32 map over the id
/// column — no Value is hashed and no string payload is touched — and the
/// codes are invariant to store id assignment (which may vary across runs
/// under parallel ingest).
///
/// `nan_never_equal` gives every NaN double cell a code of its own, even
/// when row copies share its id (Value equality: NaN equals nothing).
/// `representatives`, when set, receives one Value per code — the first
/// cell observed with that code.
uint32_t EncodeColumnIds(const Table& table, size_t col, bool nan_never_equal,
                         std::vector<uint32_t>* codes,
                         std::vector<Value>* representatives = nullptr);

}  // namespace psk

#endif  // PSK_TABLE_TABLE_H_
