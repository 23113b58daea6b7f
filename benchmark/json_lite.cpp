#include "json_lite.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bench {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue document() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    JsonValue v;
    const char c = s_[pos_];
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      ++pos_;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.members.emplace_back(std::move(key), value());
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      ++pos_;
      if (consume(']')) return v;
      do {
        v.items.push_back(value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = string();
    } else if (literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = JsonValue::Kind::kBool;
    } else if (literal("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      v.kind = JsonValue::Kind::kNumber;
      const std::size_t start = pos_;
      while (pos_ < s_.size() &&
             std::string("+-.eE0123456789").find(s_[pos_]) !=
                 std::string::npos)
        ++pos_;
      if (pos_ == start) fail("unexpected character");
      v.text = s_.substr(start, pos_ - start);
    }
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        default: fail("unsupported escape");
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).document();
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    return parse_json(ss.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

FlatMap read_flat_file(const std::string& path) {
  const JsonValue doc = read_json_file(path);
  if (doc.kind != JsonValue::Kind::kObject)
    throw std::runtime_error(path + ": expected a JSON object");
  FlatMap out;
  for (const auto& [key, v] : doc.members) {
    if (v.kind == JsonValue::Kind::kNumber)
      out[key] = v.text;
    else if (v.kind == JsonValue::Kind::kString)
      out[key] = json_quote(v.text);
    else
      throw std::runtime_error(path + ": value of '" + key +
                               "' is not a number or string");
  }
  return out;
}

void write_flat_file(const std::string& path, const FlatMap& values) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, token] : values)
    out << "  " << json_quote(key) << ": " << token
        << (++i < values.size() ? ",\n" : "\n");
  out << "}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace bench
