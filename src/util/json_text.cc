#include "util/json_text.h"

#include <cmath>
#include <cstdio>

namespace karl::util {

void AppendJsonString(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buffer);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out->append(buffer);
}

}  // namespace karl::util
