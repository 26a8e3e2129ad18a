// The two JSON text primitives every hand-written JSON emitter in the
// tree shares (the wire protocol's Json::Dump, the metrics and trace
// expositions, /sloz, NDJSON log lines): string escaping and number
// formatting. One copy, so every surface escapes and rounds the same way.

#ifndef KARL_UTIL_JSON_TEXT_H_
#define KARL_UTIL_JSON_TEXT_H_

#include <string>
#include <string_view>

namespace karl::util {

/// Appends `s` escaped for the inside of a JSON string literal; the
/// caller writes the surrounding quotes. `"` and `\` are backslashed,
/// \b \f \n \r \t use their short forms, other bytes below 0x20 become
/// \u00XX, and everything else (UTF-8 included) passes through — so the
/// output never holds a raw newline.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends `v` with %.17g, which round-trips every finite double exactly
/// through strtod. JSON has no NaN/Inf literals, so a non-finite value
/// is written as null.
void AppendJsonNumber(std::string* out, double v);

}  // namespace karl::util

#endif  // KARL_UTIL_JSON_TEXT_H_
