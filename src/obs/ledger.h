// Metrics ledgers: each engine counter is declared once.
//
// A ledger is the field list of one metrics row type (RuntimeMetrics, its
// per-shard and per-producer rows, DistMetrics and its per-worker rows):
// for every counter, in JSON order, its JSON key, its registry gauge name
// (or none) and how to read it. The one JSON writer, the one registry
// publisher and the one row sum below all read those lists, so the JSON
// dump and the registry gauges cannot drift apart, and a new counter is
// one line in one list.

#ifndef STREAMKC_OBS_LEDGER_H_
#define STREAMKC_OBS_LEDGER_H_

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamkc {

// A field's value: an integer (a JSON integer and a gauge value), or a
// preformatted JSON real or string (JSON only).
struct LedgerValue {
  template <std::integral I>
  LedgerValue(I v) : integer(static_cast<uint64_t>(v)) {}  // NOLINT
  LedgerValue(const std::atomic<uint64_t>& v)               // NOLINT
      : integer(v.load(std::memory_order_relaxed)) {}
  LedgerValue(const std::string& s) : json("\"" + s + "\"") {}  // NOLINT
  // `v` with `decimals` digits after the point, as printf's "%.*f".
  static LedgerValue Fixed(double v, int decimals);

  std::string Json() const {
    return json.empty() ? std::to_string(integer) : json;
  }

  uint64_t integer = 0;
  std::string json;  // the rendering of a non-integer value
};

template <typename T>
struct LedgerField {
  const char* key;    // JSON key; nullptr = registry only
  const char* gauge;  // registry gauge name; nullptr = JSON only
  std::function<LedgerValue(const T&)> get;  // member, accessor or lambda
};

template <typename T>
using Ledger = std::vector<LedgerField<T>>;

// Sums one integer field over a row table (shards, producers, workers):
// every whole-run total is one of these. `get` is a member pointer, an
// accessor or a lambda.
template <typename Rows, typename Get>
uint64_t SumRows(const Rows& rows, Get get) {
  uint64_t total = 0;
  for (const auto& row : rows) {
    total += LedgerValue(std::invoke(get, row)).integer;
  }
  return total;
}

// Sets one registry gauge per field that names one; `labels` (a label
// block such as {shard="3"}) is appended to every name.
template <typename T>
void PublishFields(MetricsRegistry* registry, const T& obj,
                   const Ledger<T>& fields, const std::string& labels = "") {
  for (const LedgerField<T>& f : fields) {
    if (f.gauge == nullptr) continue;
    registry->GetGauge(f.gauge + labels)->Set(f.get(obj).integer);
  }
}

// Publishes every row of a table, each labeled `label="<row index>"`.
template <typename Rows, typename Row>
void PublishRows(MetricsRegistry* registry, const Rows& rows,
                 const Ledger<Row>& fields, const char* label) {
  for (size_t i = 0; i < std::size(rows); ++i) {
    PublishFields(registry, rows[i], fields,
                  LabeledName("", label, std::to_string(i)));
  }
}

// Renders one JSON object ("{}") or array ("[]"). With `indent` < 0 it
// stays on one line ({"a": 1, "b": 2}); otherwise each member sits on its
// own line `indent` spaces deep and the closing bracket `indent - 2` deep.
// An empty container renders as {} or [].
class JsonWriter {
 public:
  explicit JsonWriter(int indent = -1, const char* brackets = "{}");

  JsonWriter& Add(const char* key, const LedgerValue& value) {
    return AddJson(key, value.Json());
  }
  // `json` must be one complete JSON value; `key` is nullptr in arrays.
  JsonWriter& AddJson(const char* key, const std::string& json);

  template <typename T>
  JsonWriter& AddFields(const T& obj, const Ledger<T>& fields) {
    for (const LedgerField<T>& f : fields) {
      if (f.key != nullptr) Add(f.key, f.get(obj));
    }
    return *this;
  }

  // `"key": [...]` with one single-line object per row, each led by
  // `"label": <row index>`.
  template <typename Rows, typename Row>
  JsonWriter& AddRows(const char* key, const char* label, const Rows& rows,
                      const Ledger<Row>& fields) {
    JsonWriter array(indent_ < 0 ? -1 : indent_ + 2, "[]");
    for (size_t i = 0; i < std::size(rows); ++i) {
      array.AddJson(nullptr,
                    JsonWriter().Add(label, i).AddFields(rows[i], fields)
                        .Close());
    }
    return AddJson(key, array.Close());
  }

  std::string Close() const;

 private:
  int indent_;
  std::string lead_;  // before the first member
  std::string sep_;   // before every later member
  std::string close_;
  std::string out_;
};

}  // namespace streamkc

#endif  // STREAMKC_OBS_LEDGER_H_
