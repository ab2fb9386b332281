#include "psk/table/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "psk/common/durable_file.h"
#include "psk/common/string_util.h"

namespace psk {
namespace {

/// File-source read granularity. The streaming reader's peak text
/// residency is one block plus the longest record, independent of file
/// size.
constexpr size_t kReadBlockBytes = 256 * 1024;

/// Rows of a chunk after which a column's text memo is judged: one that
/// missed on more than half of them is switched off for the chunk.
constexpr size_t kMemoProbeRows = 1024;

/// Matches a parsed header against the schema: file column j maps to
/// schema attribute result[j].
Result<std::vector<size_t>> MapHeader(const std::vector<std::string>& header,
                                      const Schema& schema) {
  std::vector<size_t> file_to_schema;
  std::vector<bool> seen(schema.num_attributes(), false);
  for (const std::string& name : header) {
    auto idx_result = schema.IndexOf(Trim(name));
    if (!idx_result.ok()) {
      return Status::InvalidArgument("CSV header (line 1): " +
                                     idx_result.status().message());
    }
    size_t idx = idx_result.value();
    if (seen[idx]) {
      return Status::InvalidArgument(
          "CSV header (line 1): duplicate column '" +
          std::string(Trim(name)) + "'");
    }
    seen[idx] = true;
    file_to_schema.push_back(idx);
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("CSV is missing column '" +
                                     schema.attribute(i).name + "'");
    }
  }
  return file_to_schema;
}

bool NeedsQuoting(const std::string& field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

/// Streams every chunk of `reader` into a fresh table. When `budget` is
/// set, the growing table (id columns + interned store) stays reserved
/// against it for the duration of the read — a transient ingest meter;
/// the sustained charge is the run-time seam (Anonymizer input
/// reservation).
Result<Table> DrainReader(CsvChunkReader reader, const Schema& schema,
                          const CsvOptions& options) {
  Table table(schema);
  IngestChunk chunk;
  MemoryReservation table_reservation;
  size_t chunk_rows = options.chunk_rows;
  while (true) {
    PSK_ASSIGN_OR_RETURN(size_t n, reader.NextChunk(chunk_rows, &chunk));
    if (n == 0) break;
    PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
    if (options.ingest_budget != nullptr) {
      PSK_RETURN_IF_ERROR(table_reservation.Reserve(options.ingest_budget,
                                                    table.ApproxBytes()));
    }
  }
  return table;
}

/// A zero chunk size would read no rows and return an empty table.
Status CheckChunkRows(const CsvOptions& options) {
  if (options.chunk_rows == 0) {
    return Status::InvalidArgument("CsvOptions::chunk_rows must be >= 1");
  }
  return Status::OK();
}

}  // namespace

CsvChunkReader::CsvChunkReader(const Schema& schema, CsvOptions options)
    : schema_(&schema),
      options_(std::move(options)),
      memos_(schema.num_attributes()) {}

Result<CsvChunkReader> CsvChunkReader::OpenFile(const std::string& path,
                                                const Schema& schema,
                                                const CsvOptions& options) {
  CsvChunkReader reader(schema, options);
  reader.file_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*reader.file_) {
    return Status::IOError("cannot open file for reading: " + path);
  }
  PSK_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Result<CsvChunkReader> CsvChunkReader::OpenString(std::string_view text,
                                                  const Schema& schema,
                                                  const CsvOptions& options) {
  CsvChunkReader reader(schema, options);
  reader.buffer_view_ = text;
  reader.source_exhausted_ = true;
  PSK_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Result<bool> CsvChunkReader::FillRecord() {
  // File sources view their own buffer_: re-anchor the view each call so
  // a moved reader (Open* returns by value) never reads the moved-from
  // string's storage.
  if (file_ != nullptr) buffer_view_ = buffer_;
  if (file_ == nullptr || source_exhausted_) {
    // String source (or drained file): everything is already in view.
    return pos_ < buffer_view_.size();
  }
  // Scan for an unquoted newline from pos_, refilling until found or EOF.
  // The quote state survives refills so the scan stays linear.
  size_t scan = pos_;
  bool in_quotes = false;
  while (true) {
    for (; scan < buffer_.size(); ++scan) {
      char c = buffer_[scan];
      if (in_quotes) {
        if (c == '"') in_quotes = false;
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == '\n') {
        buffer_view_ = buffer_;
        return true;
      }
    }
    // No complete record yet: compact the consumed prefix, then read
    // another block. Compaction keeps residency bounded by one block
    // plus the longest record.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      scan -= pos_;
      pos_ = 0;
    }
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + kReadBlockBytes);
    file_->read(&buffer_[old_size], static_cast<std::streamsize>(
                                        kReadBlockBytes));
    size_t got = static_cast<size_t>(file_->gcount());
    buffer_.resize(old_size + got);
    buffer_view_ = buffer_;
    if (got == 0) {
      source_exhausted_ = true;
      return pos_ < buffer_.size();
    }
  }
}

Status CsvChunkReader::ParseHeader() {
  if (!options_.has_header) {
    for (size_t i = 0; i < schema_->num_attributes(); ++i) {
      file_to_schema_.push_back(i);
    }
    return Status::OK();
  }
  PSK_ASSIGN_OR_RETURN(bool have, FillRecord());
  if (!have) {
    return Status::InvalidArgument("CSV is empty but a header was expected");
  }
  size_t consumed = 0;
  PSK_RETURN_IF_ERROR(TokenizeRecord(&consumed));
  std::vector<std::string> header;
  for (const FieldSpan& field : fields_) {
    header.emplace_back(FieldText(field));
  }
  PSK_ASSIGN_OR_RETURN(file_to_schema_, MapHeader(header, *schema_));
  line_ += consumed;
  return Status::OK();
}

Status CsvChunkReader::ChargeBuffers(size_t chunk_bytes) {
  if (options_.ingest_budget == nullptr) return Status::OK();
  return ingest_reservation_.Reserve(options_.ingest_budget,
                                     buffer_.capacity() + chunk_bytes);
}

Status CsvChunkReader::TokenizeRecord(size_t* lines_consumed) {
  std::string_view text = buffer_view_;
  const char sep = options_.separator;
  fields_.clear();
  *lines_consumed = 0;
  size_t begin = pos_;
  size_t i = pos_;
  bool escaped = false;
  bool in_quotes = false;
  bool at_newline = false;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (c == '\n') {
        ++*lines_consumed;
      }
    } else if (c == '"') {
      in_quotes = true;
      escaped = true;
    } else if (c == sep) {
      fields_.push_back({begin, i, escaped});
      begin = i + 1;
      escaped = false;
    } else if (c == '\n') {
      ++*lines_consumed;
      at_newline = true;
      break;
    } else if (c == '\r') {
      // Dropped by FieldText; \r\n ends the record at the \n.
      escaped = true;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        "unterminated quoted field in CSV record starting at line " +
        std::to_string(line_));
  }
  fields_.push_back({begin, i, escaped});
  pos_ = at_newline ? i + 1 : i;
  return Status::OK();
}

std::string_view CsvChunkReader::FieldText(const FieldSpan& f) {
  std::string_view raw = buffer_view_.substr(f.begin, f.end - f.begin);
  if (!f.escaped) return raw;
  // Undo the quoting TokenizeRecord honored: quotes delimit, a doubled
  // quote inside them is one literal quote, and an unquoted \r is dropped.
  scratch_.clear();
  bool in_quotes = false;
  for (size_t i = 0; i < raw.size(); ++i) {
    char c = raw[i];
    if (in_quotes) {
      if (c != '"') {
        scratch_.push_back(c);
      } else if (i + 1 < raw.size() && raw[i + 1] == '"') {
        scratch_.push_back('"');
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c != '\r') {
      scratch_.push_back(c);
    }
  }
  return scratch_;
}

Result<size_t> CsvChunkReader::NextChunk(size_t max_rows, IngestChunk* chunk) {
  chunk->Reset(*schema_, std::min(max_rows, size_t{64} * 1024));
  if (max_rows == 0) return size_t{0};
  // Codes index this chunk's entries, so the memos start empty per chunk.
  for (FieldMemo& memo : memos_) {
    memo.entries.clear();
    memo.enabled = true;
  }
  size_t rows = 0;
  size_t consumed = 0;
  while (rows < max_rows) {
    if (rows == kMemoProbeRows) {
      // A column whose probe rows were mostly distinct (an id, free text)
      // would pay a memo insert per cell for nothing: from here on its
      // cells get entries of their own, as push_back producers' do.
      for (FieldMemo& memo : memos_) {
        if (memo.entries.size() > kMemoProbeRows / 2) {
          memo.enabled = false;
          memo.entries.clear();
        }
      }
    }
    PSK_ASSIGN_OR_RETURN(bool have, FillRecord());
    if (!have) break;
    char c = buffer_view_[pos_];
    // Skip blank lines (common at end of file).
    if (c == '\n') {
      ++pos_;
      ++line_;
      continue;
    }
    if (c == '\r') {
      ++pos_;
      continue;
    }
    PSK_RETURN_IF_ERROR(TokenizeRecord(&consumed));
    // The whole record's shape is checked before any field resolves, so a
    // ragged record reports its field count, never a field's parse error.
    if (fields_.size() != file_to_schema_.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line_) + " has " +
          std::to_string(fields_.size()) + " fields; expected " +
          std::to_string(file_to_schema_.size()));
    }
    for (size_t j = 0; j < fields_.size(); ++j) {
      size_t attr = file_to_schema_[j];
      std::string_view text = FieldText(fields_[j]);
      IngestColumn& column = chunk->columns[attr];
      FieldMemo& memo = memos_[attr];
      if (memo.enabled) {
        auto hit = memo.entries.find(text);
        if (hit != memo.entries.end()) {
          column.push_code(hit->second);
          continue;
        }
      }
      auto value = Value::Parse(text, schema_->attribute(attr).type);
      if (!value.ok()) {
        return Status::InvalidArgument(
            "CSV line " + std::to_string(line_) + ", column '" +
            schema_->attribute(attr).name + "': " + value.status().message());
      }
      // A NaN equals nothing, not even itself: each NaN cell keeps an
      // entry (and so a store id) of its own.
      if (memo.enabled && *value == *value) {
        memo.entries.emplace(text,
                             static_cast<uint32_t>(column.values().size()));
      }
      column.push_back(std::move(value).value());
    }
    line_ += consumed > 0 ? consumed : 1;
    ++rows;
  }
  rows_read_ += rows;
  PSK_RETURN_IF_ERROR(ChargeBuffers(chunk->ApproxBytes()));
  return rows;
}

Result<Table> ReadCsvString(std::string_view text, const Schema& schema,
                            const CsvOptions& options) {
  PSK_RETURN_IF_ERROR(CheckChunkRows(options));
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenString(text, schema, options));
  return DrainReader(std::move(reader), schema, options);
}

Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options) {
  PSK_RETURN_IF_ERROR(CheckChunkRows(options));
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenFile(path, schema, options));
  return DrainReader(std::move(reader), schema, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::ostringstream os;
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t col = 0; col < schema.num_attributes(); ++col) {
      if (col > 0) os << options.separator;
      os << schema.attribute(col).name;
    }
    os << '\n';
  }
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t col = 0; col < schema.num_attributes(); ++col) {
      if (col > 0) os << options.separator;
      std::string field = table.Get(row, col).ToString();
      os << (NeedsQuoting(field, options.separator) ? QuoteField(field)
                                                    : field);
    }
    os << '\n';
  }
  return os.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  return AtomicWriteFile(path, WriteCsvString(table, options));
}

}  // namespace psk
