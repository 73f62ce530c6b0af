#include "runtime/metrics_export.h"

#include "obs/export.h"
#include "obs/ledger.h"

namespace streamkc {

std::string ComposeMetrics(bool prometheus, const RuntimeMetrics* runtime,
                           const SpaceAccountant* space,
                           const MetricsSection& extra,
                           MetricsRegistry& registry) {
  if (runtime != nullptr) runtime->PublishTo(&registry);
  if (extra.publish) extra.publish(&registry);
  if (prometheus) return ExportPrometheus(registry.Snapshot());
  JsonWriter json(2);
  if (runtime != nullptr) runtime->AppendJson(json);
  if (space != nullptr) json.AddJson("space", space->ToJson());
  if (!extra.name.empty()) json.AddJson(extra.name.c_str(), extra.json);
  json.AddJson("registry", ExportJson(registry.Snapshot()));
  return json.Close();
}

}  // namespace streamkc
