// Composes a run's full observability dump from its sources: the ingestion
// engine's RuntimeMetrics (absent for in-line single-threaded passes), the
// pass's SpaceAccountant breakdown, an optional extra section (serve's
// "serving", sketch's "dist") and the metrics registry (stream counters,
// histograms, published gauges).
//
// Every section is published into the registry once, before either format
// renders, so the JSON "registry" object and the Prometheus exposition
// carry the same gauges. The JSON form is a backward-compatible SUPERSET of
// the original --metrics-out schema: every top-level RuntimeMetrics::ToJson()
// key is preserved at the top level, with "space", the extra section and
// "registry" appended.

#ifndef STREAMKC_RUNTIME_METRICS_EXPORT_H_
#define STREAMKC_RUNTIME_METRICS_EXPORT_H_

#include <functional>
#include <string>

#include "obs/space_accountant.h"
#include "runtime/runtime_metrics.h"

namespace streamkc {

// A CLI mode's own top-level section: its complete JSON value, emitted
// verbatim under `name` (empty = no section), and how it mirrors itself
// into the registry (empty = it publishes nothing).
struct MetricsSection {
  std::string name;
  std::string json;
  std::function<void(MetricsRegistry*)> publish;
};

// `runtime` and `space` may each be nullptr (section omitted). Space gauges
// are expected to be in the registry already (SpaceAccountant publishes on
// Sample when built with a registry).
std::string ComposeMetrics(bool prometheus, const RuntimeMetrics* runtime,
                           const SpaceAccountant* space,
                           const MetricsSection& extra,
                           MetricsRegistry& registry);

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_METRICS_EXPORT_H_
