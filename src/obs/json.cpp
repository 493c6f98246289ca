#include "obs/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace pkifmm::obs {

void Json::set(const std::string& key, Json v) {
  PKIFMM_CHECK(type_ == Type::kObject);
  auto [it, inserted] = fields_.insert_or_assign(key, std::move(v));
  (void)it;
  if (inserted) keys_.push_back(key);
}

bool Json::contains(const std::string& key) const {
  PKIFMM_CHECK(type_ == Type::kObject);
  return fields_.count(key) != 0;
}

const Json& Json::at(const std::string& key) const {
  PKIFMM_CHECK(type_ == Type::kObject);
  auto it = fields_.find(key);
  PKIFMM_CHECK_MSG(it != fields_.end(), "missing JSON key '" << key << "'");
  return it->second;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  PKIFMM_CHECK_MSG(std::isfinite(v), "JSON cannot represent " << v);
  // Round-trip-exact for doubles; trims to the shortest %.17g form that
  // still parses back bit-identically.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double back = 0.0;
  std::sscanf(buf, "%lf", &back);
  if (back == v) {
    for (int prec = 1; prec < 17; ++prec) {
      char shorter[32];
      std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
      std::sscanf(shorter, "%lf", &back);
      if (back == v) {
        std::copy(shorter, shorter + sizeof(shorter), buf);
        break;
      }
    }
  }
  out += buf;
  // Keep a marker so the value parses back as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) ==
      std::string::npos)
    out += ".0";
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  // Appends, not "\n" + std::string(...): GCC 12 reports the prepend
  // as a -Wrestrict overlap in Release builds.
  std::string pad, close_pad;
  if (indent > 0) {
    pad.append(1, '\n').append(std::size_t(indent) * (depth + 1), ' ');
    close_pad.append(1, '\n').append(std::size_t(indent) * depth, ' ');
  }
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, str_); break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ",";
        out += pad;
        items_[i].dump_to(out, indent, depth + 1);
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Type::kObject: {
      if (keys_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        if (i) out += ",";
        out += pad;
        append_escaped(out, keys_[i]);
        out += indent > 0 ? ": " : ":";
        fields_.at(keys_[i]).dump_to(out, indent, depth + 1);
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    PKIFMM_CHECK_MSG(pos_ == s_.size(),
                     "trailing JSON content at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    PKIFMM_CHECK_MSG(pos_ < s_.size(), "unexpected end of JSON input");
    return s_[pos_];
  }

  void expect(char c) {
    PKIFMM_CHECK_MSG(peek() == c, "expected '" << c << "' at offset " << pos_
                                               << ", got '" << s_[pos_] << "'");
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

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': literal("true"); return Json(true);
      case 'f': literal("false"); return Json(false);
      case 'n': literal("null"); return Json();
      default: return parse_number();
    }
  }

  void literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p; ++p, ++pos_)
      PKIFMM_CHECK_MSG(pos_ < s_.size() && s_[pos_] == *p,
                       "bad JSON literal at offset " << pos_);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      PKIFMM_CHECK_MSG(pos_ < s_.size(), "unterminated JSON string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      PKIFMM_CHECK_MSG(pos_ < s_.size(), "unterminated JSON escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          PKIFMM_CHECK_MSG(pos_ + 4 <= s_.size(), "bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code += unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += unsigned(h - 'A' + 10);
            else PKIFMM_CHECK_MSG(false, "bad \\u escape digit");
          }
          // Exports only escape control characters, so non-ASCII code
          // points are out of scope here.
          PKIFMM_CHECK_MSG(code < 0x80, "non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: PKIFMM_CHECK_MSG(false, "bad JSON escape '\\" << e << "'");
      }
    }
    return out;
  }

  Json parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = s_.substr(start, pos_ - start);
    PKIFMM_CHECK_MSG(!tok.empty() && tok != "-",
                     "bad JSON number at offset " << start);
    if (!is_double) {
      try {
        return Json(static_cast<std::int64_t>(std::stoll(tok)));
      } catch (const std::out_of_range&) {
        is_double = true;  // fall through: magnitude exceeds int64
      }
    }
    return Json(std::stod(tok));
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      if (consume(']')) return arr;
      expect(',');
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (consume('}')) return obj;
    while (true) {
      std::string key = parse_string();
      expect(':');
      obj.set(key, parse_value());
      if (consume('}')) return obj;
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool Json::operator==(const Json& other) const {
  if (is_number() && other.is_number()) {
    if (type_ == Type::kInt && other.type_ == Type::kInt)
      return int_ == other.int_;
    return as_double() == other.as_double();
  }
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kInt:
    case Type::kDouble: return true;  // handled above
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return items_ == other.items_;
    case Type::kObject:
      return keys_ == other.keys_ && fields_ == other.fields_;
  }
  return false;
}

void write_json_file(const std::string& path, const Json& j, int indent) {
  std::ofstream out(path);
  PKIFMM_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  out << j.dump(indent) << '\n';
  out.close();
  PKIFMM_CHECK_MSG(out.good(), "write to '" << path << "' failed");
}

Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  PKIFMM_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  std::ostringstream ss;
  ss << in.rdbuf();
  return Json::parse(ss.str());
}

}  // namespace pkifmm::obs
