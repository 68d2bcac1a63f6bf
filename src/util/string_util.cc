#include "util/string_util.h"

#include <cstdint>
#include <cstring>

namespace sparqluo {

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view TrimString(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
          s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

namespace {

constexpr uint64_t kEveryByte = 0x0101010101010101ULL;

/// Nonzero iff some byte of `w` is '"', '\\' or below 0x20 — every byte
/// either escape can rewrite. Exact as a test (no false positives):
/// x - 0x01.. & ~x & 0x80.. flags a zero byte, here of w ^ '"' and of
/// w ^ '\\', and w - 0x20.. & ~w & 0x80.. a byte below 0x20; the XORed
/// constants have a clear top bit, so ~w stands in for their complements.
inline uint64_t MayNeedEscape(uint64_t w) {
  const uint64_t quote = w ^ (kEveryByte * '"');
  const uint64_t backslash = w ^ (kEveryByte * '\\');
  return ((w - kEveryByte * 0x20) | (quote - kEveryByte) |
          (backslash - kEveryByte)) &
         ~w & (kEveryByte * 0x80);
}

/// Copies `s` to `out` eight bytes at a time, handing each byte of a word
/// MayNeedEscape flags (and of the tail) to `escape(c, out)`, which writes
/// it and returns the new end.
template <typename EscapeByte>
char* EscapeWords(std::string_view s, char* out, EscapeByte escape) {
  const char* p = s.data();
  const char* const end = p + s.size();
  for (; end - p >= 8; p += 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    if (MayNeedEscape(w) == 0) {
      std::memcpy(out, p, 8);
      out += 8;
    } else {
      for (int i = 0; i < 8; ++i) out = escape(p[i], out);
    }
  }
  for (; p < end; ++p) out = escape(*p, out);
  return out;
}

char* Put2(char* out, char a, char b) {
  out[0] = a;
  out[1] = b;
  return out + 2;
}

}  // namespace

char* CopyTo(std::string_view s, char* out) {
  std::memcpy(out, s.data(), s.size());
  return out + s.size();
}

std::string EscapeLiteral(std::string_view s) {
  std::string out(2 * s.size(), '\0');
  out.resize(static_cast<size_t>(EscapeLiteralTo(s, out.data()) - out.data()));
  return out;
}

char* EscapeLiteralTo(std::string_view s, char* out) {
  return EscapeWords(s, out, [](char c, char* o) {
    switch (c) {
      case '\\': return Put2(o, '\\', '\\');
      case '"': return Put2(o, '\\', '"');
      case '\n': return Put2(o, '\\', 'n');
      case '\t': return Put2(o, '\\', 't');
      case '\r': return Put2(o, '\\', 'r');
      default: *o = c; return o + 1;
    }
  });
}

char* EscapeJsonTo(std::string_view s, char* out) {
  return EscapeWords(s, out, [](char c, char* o) {
    switch (c) {
      case '\\': return Put2(o, '\\', '\\');
      case '"': return Put2(o, '\\', '"');
      case '\n': return Put2(o, '\\', 'n');
      case '\t': return Put2(o, '\\', 't');
      case '\r': return Put2(o, '\\', 'r');
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          *o = c;
          return o + 1;
        }
        std::memcpy(o, "\\u00", 4);
        o[4] = "0123456789abcdef"[c >> 4];
        o[5] = "0123456789abcdef"[c & 0xf];
        return o + 6;
    }
  });
}

std::string UnescapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace sparqluo
