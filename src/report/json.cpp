#include "report/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace vitbit::report {

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull:
      return "null";
    case Json::Type::kBool:
      return "bool";
    case Json::Type::kInt:
      return "int";
    case Json::Type::kDouble:
      return "double";
    case Json::Type::kString:
      return "string";
    case Json::Type::kArray:
      return "array";
    case Json::Type::kObject:
      return "object";
  }
  return "?";
}

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_double(std::ostream& os, double v) {
  VITBIT_CHECK_MSG(std::isfinite(v), "JSON cannot represent " << v);
  std::ostringstream tmp;
  tmp.precision(std::numeric_limits<double>::max_digits10);
  tmp << v;
  std::string s = tmp.str();
  // Keep a numeric marker so the value parses back as kDouble, not kInt.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  os << s;
}

// Arrays and objects may nest at most this deep (the committed baselines
// nest 7 deep), so hostile input fails with a parse error before the
// recursion can exhaust the stack.
constexpr int kMaxDepth = 256;

// Recursive-descent parser over a bounded character range.
class Parser {
 public:
  Parser(const char* p, const char* end) : p_(p), end_(end) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    VITBIT_CHECK_MSG(p_ == end_, "trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    VITBIT_CHECK_MSG(false, "JSON parse error: " << what << " at offset "
                                                 << consumed_);
    std::abort();  // unreachable; CHECK throws
  }

  char peek() {
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }

  char advance() {
    const char c = peek();
    ++p_;
    ++consumed_;
    return c;
  }

  bool eat(char c) {
    if (p_ != end_ && *p_ == c) {
      advance();
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r'))
      advance();
  }

  void expect_word(const char* word) {
    for (const char* w = word; *w; ++w)
      if (!eat(*w)) fail(std::string("bad literal (wanted '") + word + "')");
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++depth_;
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json(parse_string());
      case 't':
        expect_word("true");
        return Json(true);
      case 'f':
        expect_word("false");
        return Json(false);
      case 'n':
        expect_word("null");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (eat('}')) return obj;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      VITBIT_CHECK_MSG(!obj.contains(key), "duplicate JSON key: " << key);
      obj.set(key, parse_value());
      skip_ws();
      if (eat('}')) return obj;
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (eat(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (eat(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') return out;
      if (c != '\\') {
        VITBIT_CHECK_MSG(static_cast<unsigned char>(c) >= 0x20,
                         "unescaped control character in string");
        out += c;
        continue;
      }
      const char esc = advance();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // Reports only ever escape control characters; encode the code
          // point as UTF-8 (no surrogate-pair handling needed or done).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    std::string text;
    bool is_double = false;
    if (eat('-')) text += '-';
    auto digits = [&] {
      bool any = false;
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_))) {
        text += advance();
        any = true;
      }
      if (!any) fail("bad number");
    };
    digits();
    if (p_ != end_ && *p_ == '.') {
      is_double = true;
      text += advance();
      digits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      is_double = true;
      text += advance();
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) text += advance();
      digits();
    }
    if (is_double) {
      // Underflow rounds to a subnormal or to zero, both kept; overflow
      // has no finite value.
      const double v = std::strtod(text.c_str(), nullptr);
      if (!std::isfinite(v)) fail("number out of range");
      return Json(v);
    }
    errno = 0;
    char* endp = nullptr;
    const long long v = std::strtoll(text.c_str(), &endp, 10);
    if (errno == ERANGE || *endp != '\0') fail("integer out of range");
    return Json(static_cast<std::int64_t>(v));
  }

  const char* p_;
  const char* end_;
  std::size_t consumed_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::array() {
  Json v;
  v.type_ = Type::kArray;
  return v;
}

Json Json::object() {
  Json v;
  v.type_ = Type::kObject;
  return v;
}

bool Json::as_bool() const {
  VITBIT_CHECK_MSG(type_ == Type::kBool,
                   "JSON value is " << type_name(type_) << ", not bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  VITBIT_CHECK_MSG(type_ == Type::kInt,
                   "JSON value is " << type_name(type_) << ", not int");
  return int_;
}

std::uint64_t Json::as_uint() const {
  const std::int64_t v = as_int();
  VITBIT_CHECK_MSG(v >= 0, "JSON value is negative: " << v);
  return static_cast<std::uint64_t>(v);
}

double Json::as_double() const {
  if (type_ == Type::kInt) return static_cast<double>(int_);
  VITBIT_CHECK_MSG(type_ == Type::kDouble,
                   "JSON value is " << type_name(type_) << ", not a number");
  return double_;
}

const std::string& Json::as_string() const {
  VITBIT_CHECK_MSG(type_ == Type::kString,
                   "JSON value is " << type_name(type_) << ", not string");
  return string_;
}

Json& Json::push_back(Json v) {
  VITBIT_CHECK_MSG(type_ == Type::kArray,
                   "push_back on " << type_name(type_));
  array_.push_back(std::move(v));
  return *this;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  VITBIT_CHECK_MSG(false, "size() of " << type_name(type_));
  return 0;
}

const Json& Json::operator[](std::size_t i) const {
  VITBIT_CHECK_MSG(type_ == Type::kArray,
                   "operator[] on " << type_name(type_));
  VITBIT_CHECK_MSG(i < array_.size(), "JSON array index " << i
                                                          << " out of range");
  return array_[i];
}

Json& Json::set(const std::string& key, Json v) {
  VITBIT_CHECK_MSG(type_ == Type::kObject, "set() on " << type_name(type_));
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

bool Json::contains(const std::string& key) const {
  return find(key) != nullptr;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  VITBIT_CHECK_MSG(type_ == Type::kObject, "at() on " << type_name(type_));
  const Json* v = find(key);
  VITBIT_CHECK_MSG(v != nullptr, "missing JSON key: " << key);
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  VITBIT_CHECK_MSG(type_ == Type::kObject, "items() on " << type_name(type_));
  return object_;
}

std::int64_t Json::int_at(const std::string& key) const {
  VITBIT_CHECK_MSG(at(key).type() == Type::kInt, "key '" << key
                                                         << "' is not int");
  return at(key).as_int();
}

std::uint64_t Json::uint_at(const std::string& key) const {
  VITBIT_CHECK_MSG(at(key).type() == Type::kInt, "key '" << key
                                                         << "' is not int");
  return at(key).as_uint();
}

double Json::double_at(const std::string& key) const {
  VITBIT_CHECK_MSG(at(key).is_number(), "key '" << key
                                                << "' is not a number");
  return at(key).as_double();
}

const std::string& Json::string_at(const std::string& key) const {
  VITBIT_CHECK_MSG(at(key).is_string(), "key '" << key << "' is not string");
  return at(key).as_string();
}

void Json::write(std::ostream& os, int indent) const {
  write_indented(os, indent, 0);
}

void Json::write_indented(std::ostream& os, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent <= 0) return;
    os << '\n';
    for (int i = 0; i < indent * d; ++i) os << ' ';
  };
  switch (type_) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Type::kInt:
      os << int_;
      break;
    case Type::kDouble:
      write_double(os, double_);
      break;
    case Type::kString:
      write_escaped(os, string_);
      break;
    case Type::kArray: {
      os << '[';
      bool first = true;
      for (const auto& v : array_) {
        if (!first) os << ',';
        first = false;
        newline_pad(depth + 1);
        v.write_indented(os, indent, depth + 1);
      }
      if (!array_.empty()) newline_pad(depth);
      os << ']';
      break;
    }
    case Type::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) os << ',';
        first = false;
        newline_pad(depth + 1);
        write_escaped(os, k);
        os << (indent > 0 ? ": " : ":");
        v.write_indented(os, indent, depth + 1);
      }
      if (!object_.empty()) newline_pad(depth);
      os << '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::ostringstream os;
  write(os, indent);
  return os.str();
}

Json Json::parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.parse_document();
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

Json load_json_file(const std::string& path) {
  std::ifstream f(path);
  VITBIT_CHECK_MSG(f.good(), "cannot read JSON file: " << path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return Json::parse(buf.str());
}

void save_json_file(const std::string& path, const Json& value) {
  std::ofstream f(path);
  VITBIT_CHECK_MSG(f.good(), "cannot write JSON file: " << path);
  value.write(f, 2);
  f << '\n';
  VITBIT_CHECK_MSG(f.good(), "write failed: " << path);
}

}  // namespace vitbit::report
