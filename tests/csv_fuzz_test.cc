// Differential fuzz test for the CSV reader. Seeded random texts —
// quotes, doubled quotes, separators and newlines inside quotes, \r,
// blank lines, empty fields, signed and zero-padded integers, -0.0/0.0,
// nan, ragged records, bad numbers and unterminated quotes — are read by
// ReadCsvString and ReadCsvFile at several chunk sizes and compared with
// a reference reader kept here: the record splitter the reader used
// before chunks were dictionary-coded, then Value::Parse per cell, then
// Table::AppendRow. Every text must give the same cells (value and type)
// and the same distinct-id count per column, or the same status code and
// message.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "psk/common/durable_file.h"
#include "psk/common/random.h"
#include "psk/common/string_util.h"
#include "psk/table/csv.h"
#include "psk/table/table.h"
#include "test_util.h"

namespace psk {
namespace {

// ---------------------------------------------------------------------------
// The reference reader.

// Splits one logical CSV record into fields, honoring quotes. `pos` points
// at the start of the record and is advanced past its trailing newline;
// `lines_consumed` receives the newlines swallowed, embedded ones included.
Result<std::vector<std::string>> ParseRecord(std::string_view text,
                                             size_t* pos, char sep,
                                             size_t start_line,
                                             size_t* lines_consumed) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  *lines_consumed = 0;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++*lines_consumed;
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++*lines_consumed;
      ++i;
      break;
    } else if (c == '\r') {
      // Swallow; \r\n handled by the \n branch next iteration.
    } else {
      field.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument(
        "unterminated quoted field in CSV record starting at line " +
        std::to_string(start_line));
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

// Reads the whole of `text` (a well-formed header, if configured, then
// records) one row at a time.
Result<Table> ReferenceRead(std::string_view text, const Schema& schema,
                            const CsvOptions& options) {
  size_t pos = 0;
  size_t line = 1;
  size_t consumed = 0;
  std::vector<size_t> file_to_schema;
  if (options.has_header) {
    PSK_ASSIGN_OR_RETURN(
        std::vector<std::string> header,
        ParseRecord(text, &pos, options.separator, line, &consumed));
    for (const std::string& name : header) {
      PSK_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(Trim(name)));
      file_to_schema.push_back(index);
    }
    line += consumed;
  } else {
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      file_to_schema.push_back(i);
    }
  }
  Table table(schema);
  while (pos < text.size()) {
    char c = text[pos];
    if (c == '\n') {
      ++pos;
      ++line;
      continue;
    }
    if (c == '\r') {
      ++pos;
      continue;
    }
    PSK_ASSIGN_OR_RETURN(
        std::vector<std::string> fields,
        ParseRecord(text, &pos, options.separator, line, &consumed));
    if (fields.size() != file_to_schema.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line) + " has " +
          std::to_string(fields.size()) + " fields; expected " +
          std::to_string(file_to_schema.size()));
    }
    std::vector<Value> row(schema.num_attributes());
    for (size_t j = 0; j < fields.size(); ++j) {
      size_t attr = file_to_schema[j];
      auto value = Value::Parse(fields[j], schema.attribute(attr).type);
      if (!value.ok()) {
        return Status::InvalidArgument(
            "CSV line " + std::to_string(line) + ", column '" +
            schema.attribute(attr).name + "': " + value.status().message());
      }
      row[attr] = std::move(value).value();
    }
    PSK_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
    line += consumed > 0 ? consumed : 1;
  }
  return table;
}

// ---------------------------------------------------------------------------
// Random texts.

Schema FuzzSchema() {
  return UnwrapOk(Schema::Create(
      {{"S", ValueType::kString, AttributeRole::kKey},
       {"I", ValueType::kInt64, AttributeRole::kKey},
       {"D", ValueType::kDouble, AttributeRole::kKey},
       {"T", ValueType::kString, AttributeRole::kConfidential}}));
}

const std::vector<std::string> kStrings = {
    "a", "b", "", "nan", "hello world", "a,b", "say \"hi\"", "two\nlines",
    "cr\rhere", "x", "  padded ", "\"", "0.0", "-0.0", "007"};
const std::vector<std::string> kInts = {"1", "+1", "001", "-5", "0", "",
                                        "42", " 7", "-0", "+0042"};
const std::vector<std::string> kDoubles = {
    "0.0", "-0.0", "1.5", "", "2.50", "-3", "1e3", "0", ".5", "+0.0"};
// Texts that fail Value::Parse in the typed columns.
const std::vector<std::string> kBadInts = {
    "abc", "1.5", "99999999999999999999", "1e3", "12x", "nan"};
const std::vector<std::string> kBadDoubles = {"nan", "inf",  "1e999",
                                              "x1",  "1.2.3", "-nan"};

std::string Pick(Rng* rng, const std::vector<std::string>& pool) {
  return pool[rng->Uniform(pool.size())];
}

// Renders one field's text as CSV: quoted when it must be, sometimes when
// it need not be, and sometimes quoted only in part ("ab""c" -> ab"c).
std::string Render(Rng* rng, const std::string& text) {
  bool must = text.find_first_of(",\"\n\r") != std::string::npos;
  if (!must && !rng->Bernoulli(0.15)) return text;
  std::string escaped;
  for (char c : text) {
    if (c == '"') escaped += "\"\"";
    else escaped.push_back(c);
  }
  if (!must && text.size() >= 2 && rng->Bernoulli(0.3)) {
    // Quote a suffix only: x"yz" reads as xyz.
    size_t cut = 1 + rng->Uniform(text.size() - 1);
    return text.substr(0, cut) + "\"" + text.substr(cut) + "\"";
  }
  return "\"" + escaped + "\"";
}

struct FuzzText {
  std::string text;
  bool has_header = true;
};

// One random text of at least `max_records` records and `min_bytes`
// bytes. `fault_rate` is the chance that a field is a bad
// number, that a record is ragged, or that the text ends inside a quote.
FuzzText MakeText(Rng* rng, size_t max_records, size_t min_bytes,
                  double fault_rate) {
  FuzzText out;
  out.has_header = rng->Bernoulli(0.8);
  std::vector<std::string> names = {"S", "I", "D", "T"};
  if (out.has_header) {
    // Columns in a random file order; matched by name.
    for (size_t i = names.size(); i > 1; --i) {
      std::swap(names[i - 1], names[rng->Uniform(i)]);
    }
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out.text += ',';
      out.text += names[i];
    }
    out.text += rng->Bernoulli(0.2) ? "\r\n" : "\n";
  }
  for (size_t r = 0; r < max_records || out.text.size() < min_bytes; ++r) {
    if (rng->Bernoulli(0.05)) out.text += rng->Bernoulli(0.5) ? "\n" : "\r\n";
    size_t fields = names.size();
    if (rng->Bernoulli(fault_rate)) fields = rng->Bernoulli(0.5) ? 3 : 5;
    for (size_t j = 0; j < fields; ++j) {
      if (j > 0) out.text += ',';
      const std::string& name = names[j % names.size()];
      std::string text;
      if (name == "I") {
        text = rng->Bernoulli(fault_rate) ? Pick(rng, kBadInts)
                                          : Pick(rng, kInts);
      } else if (name == "D") {
        text = rng->Bernoulli(fault_rate) ? Pick(rng, kBadDoubles)
                                          : Pick(rng, kDoubles);
      } else {
        text = Pick(rng, kStrings);
        // A tail of rare values keeps the per-chunk dictionaries growing.
        if (rng->Bernoulli(0.2)) text += std::to_string(rng->Uniform(5000));
      }
      out.text += Render(rng, text);
    }
    out.text += rng->Bernoulli(0.2) ? "\r\n" : "\n";
  }
  if (rng->Bernoulli(0.3) && !out.text.empty()) {
    out.text.pop_back();  // no newline after the last record
    if (!out.text.empty() && out.text.back() == '\r') out.text.pop_back();
  }
  if (rng->Bernoulli(fault_rate)) out.text += "a,\"unterminated,1,2\n";
  return out;
}

// ---------------------------------------------------------------------------
// The comparison.

bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble && std::isnan(a.AsDouble())) {
    return std::isnan(b.AsDouble());
  }
  return a == b;
}

// Returns the number of mismatches between `got` and the reference.
size_t Compare(const Result<Table>& want, const Result<Table>& got,
               const std::string& what) {
  if (want.ok() != got.ok()) {
    ADD_FAILURE() << what << ": reference "
                  << (want.ok() ? "OK" : want.status().ToString())
                  << ", reader "
                  << (got.ok() ? "OK" : got.status().ToString());
    return 1;
  }
  if (!want.ok()) {
    bool same = want.status().code() == got.status().code() &&
                want.status().message() == got.status().message();
    EXPECT_TRUE(same) << what << ": reference " << want.status().ToString()
                      << ", reader " << got.status().ToString();
    return same ? 0 : 1;
  }
  const Table& a = *want;
  const Table& b = *got;
  if (a.num_rows() != b.num_rows()) {
    ADD_FAILURE() << what << ": rows " << a.num_rows() << " vs "
                  << b.num_rows();
    return 1;
  }
  size_t mismatches = 0;
  for (size_t col = 0; col < a.num_columns(); ++col) {
    for (size_t row = 0; row < a.num_rows(); ++row) {
      if (!SameCell(a.Get(row, col), b.Get(row, col))) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << what << ": cell (" << row << ", " << col
                        << ") reference '" << a.Get(row, col) << "', reader '"
                        << b.Get(row, col) << "'";
        }
      }
    }
    // Equal values share an id and a NaN never does: the distinct-id
    // counts agree exactly when the dedup and NaN rules do.
    if (a.DistinctCount(col) != b.DistinctCount(col)) {
      ADD_FAILURE() << what << ": column " << col << " distinct ids "
                    << a.DistinctCount(col) << " vs " << b.DistinctCount(col);
      ++mismatches;
    }
  }
  return mismatches;
}

const size_t kChunkSizes[] = {1, 2, 7, 64 * 1024};

// Reads `text` every way the reader offers and compares each read with
// the reference. Returns the total mismatches; `reference_ok` receives
// whether the reference read the text without error.
size_t CheckText(const FuzzText& fuzz, const std::string& label,
                 bool* reference_ok = nullptr) {
  Schema schema = FuzzSchema();
  CsvOptions options;
  options.has_header = fuzz.has_header;
  Result<Table> want = ReferenceRead(fuzz.text, schema, options);
  if (reference_ok != nullptr) *reference_ok = want.ok();
  // One file per test: ctest runs the cases as parallel processes.
  std::string path =
      testing::TempDir() + "/csv_fuzz_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  EXPECT_TRUE(AtomicWriteFile(path, fuzz.text).ok());
  size_t mismatches = 0;
  for (size_t chunk_rows : kChunkSizes) {
    options.chunk_rows = chunk_rows;
    std::string what = label + " chunk_rows=" + std::to_string(chunk_rows);
    mismatches += Compare(want, ReadCsvString(fuzz.text, schema, options),
                          what + " string");
    mismatches +=
        Compare(want, ReadCsvFile(path, schema, options), what + " file");
  }
  std::remove(path.c_str());
  return mismatches;
}

TEST(CsvDifferentialFuzzTest, SmallTextsMatchTheReference) {
  Rng rng(20260601);
  size_t mismatches = 0;
  size_t failed_reads = 0;
  for (int i = 0; i < 300; ++i) {
    double fault_rate = i % 2 == 0 ? 0.0 : 0.02;
    FuzzText fuzz = MakeText(&rng, rng.Uniform(80), 0, fault_rate);
    bool reference_ok = true;
    mismatches += CheckText(fuzz, "text " + std::to_string(i), &reference_ok);
    if (!reference_ok) ++failed_reads;
  }
  EXPECT_EQ(mismatches, 0u);
  // Both outcomes are exercised: clean texts and malformed ones.
  EXPECT_GT(failed_reads, 10u);
  EXPECT_LT(failed_reads, 290u);
}

// Texts larger than the reader's 256 KiB file block, so records —
// quoted multi-line ones among them — straddle block refills.
TEST(CsvDifferentialFuzzTest, LargeTextsStraddlingFileBlocksMatchTheReference) {
  Rng rng(77);
  size_t mismatches = 0;
  for (int i = 0; i < 3; ++i) {
    FuzzText fuzz = MakeText(&rng, 0, 600 * 1024, i == 2 ? 0.00002 : 0.0);
    mismatches += CheckText(fuzz, "large text " + std::to_string(i));
  }
  EXPECT_EQ(mismatches, 0u);
}

// A quoted field holding a separator, a doubled quote and a newline
// placed right across the 256 KiB boundary.
TEST(CsvDifferentialFuzzTest, QuotedNewlineAcrossTheBlockBoundaryMatchesTheReference) {
  constexpr size_t kBlock = 256 * 1024;
  for (size_t offset : {1, 2, 3, 5, 8}) {
    FuzzText fuzz;
    fuzz.text = "S,I,D,T\n";
    while (fuzz.text.size() < kBlock - 40) fuzz.text += "filler,1,2.5,t\n";
    while (fuzz.text.size() + 6 < kBlock - offset) fuzz.text += "q,1,0,t\n";
    fuzz.text += "\"a,\"\"b\nc\",+7,-0.0,\"x\ny\"\r\n";
    fuzz.text += "tail,2,1,t\n";
    EXPECT_EQ(CheckText(fuzz, "boundary offset " + std::to_string(offset)),
              0u);
  }
}

}  // namespace
}  // namespace psk
