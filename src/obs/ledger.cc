#include "obs/ledger.h"

#include <cstdio>

namespace streamkc {

LedgerValue LedgerValue::Fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  LedgerValue value(0);
  value.json = buf;
  return value;
}

JsonWriter::JsonWriter(int indent, const char* brackets)
    : indent_(indent), sep_(", "), close_(1, brackets[1]),
      out_(1, brackets[0]) {
  if (indent < 0) return;
  lead_.assign(1, '\n').append(indent, ' ');
  sep_.assign(1, ',').append(lead_);
  close_.insert(0, lead_, 0, lead_.size() - 2);
}

JsonWriter& JsonWriter::AddJson(const char* key, const std::string& json) {
  out_ += out_.size() == 1 ? lead_ : sep_;
  if (key != nullptr) out_.append("\"").append(key).append("\": ");
  out_ += json;
  return *this;
}

std::string JsonWriter::Close() const {
  return out_.size() == 1 ? out_ + close_.back() : out_ + close_;
}

}  // namespace streamkc
