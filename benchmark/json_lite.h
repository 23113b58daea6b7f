// A minimal JSON reader for the benchmark's own inputs: BENCHMARK.json
// (the metric manifest) and the flat expected-output files. Kept apart
// from the library's report/json so that a report-layer change can never
// break the benchmark that measures it.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  // Number: the token exactly as written. String: the decoded text.
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  // Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
};

// Parses one JSON document; throws std::runtime_error on malformed input.
JsonValue parse_json(const std::string& text);
// Reads and parses a file; throws std::runtime_error naming the path.
JsonValue read_json_file(const std::string& path);

// Quotes and escapes `s` as a JSON string.
std::string json_quote(const std::string& s);

// A flat JSON object of scalars, each held as its JSON token: `123` for a
// number, `"0x1f"` (quoted) for a string. Token equality is value
// equality, because the benchmark writes every value in one canonical
// form.
using FlatMap = std::map<std::string, std::string>;

// Reads a flat object; throws std::runtime_error when the file is missing,
// malformed, or holds a non-scalar value.
FlatMap read_flat_file(const std::string& path);
// Writes one key per line, sorted, so regenerated files diff cleanly.
void write_flat_file(const std::string& path, const FlatMap& values);

}  // namespace bench
