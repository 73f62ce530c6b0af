#include "serve/snapshot.h"

#include <sstream>

#include "util/check.h"
#include "util/envelope.h"
#include "util/serialize.h"

namespace streamkc {

namespace {

// 'K''C''S''N' — streamkc coverage snapshot.
constexpr uint32_t kSnapshotMagic = 0x4B43534E;
// Version 2 is the util/envelope.h layout; version 1 blobs are rejected.
constexpr uint32_t kSnapshotVersion = 2;

}  // namespace

std::shared_ptr<const CoverageSnapshot> CoverageSnapshot::Build(
    const ServingState& state, const SnapshotMeta& meta) {
  MaxCoverSolution solution = state.FinalizeSolution();

  std::stringstream payload;
  WriteU64(payload, meta.epoch);
  WriteU64(payload, meta.edges_ingested);
  WriteU64(payload, meta.batches_ingested);
  WriteDouble(payload, meta.quarantined_fraction);
  WriteU32(payload, meta.shards);
  WriteU64(payload, meta.publish_steady_ns);
  WriteDouble(payload, solution.estimate);
  WritePodVector(payload, std::vector<char>(solution.source.begin(),
                                            solution.source.end()));
  WritePodVector(payload, solution.sets);
  state.set_coverage().Save(payload);

  // Restoring from the just-written bytes (instead of copying live members)
  // keeps the serialization path on the publish hot path: a blob that can't
  // round-trip fails HERE, at the producer, not at a reader.
  return FromBlob(
      EncodeEnvelope(kSnapshotMagic, kSnapshotVersion, payload.str()));
}

std::shared_ptr<const CoverageSnapshot> CoverageSnapshot::FromBlob(
    const std::string& blob) {
  // Exactly one valid envelope, or die: a corrupt snapshot is never served.
  const EnvelopeParse env =
      ParseEnvelope(blob, kSnapshotMagic, kSnapshotVersion);
  CHECK(env.status == EnvelopeParse::Status::kOk);
  CHECK_EQ(env.size, blob.size());
  std::stringstream is{std::string(env.body)};

  auto snap = std::shared_ptr<CoverageSnapshot>(new CoverageSnapshot());
  snap->meta_.epoch = ReadU64(is);
  snap->meta_.edges_ingested = ReadU64(is);
  snap->meta_.batches_ingested = ReadU64(is);
  snap->meta_.quarantined_fraction = ReadDouble(is);
  snap->meta_.shards = ReadU32(is);
  snap->meta_.publish_steady_ns = ReadU64(is);
  snap->solution_.estimate = ReadDouble(is);
  const std::vector<char> source = ReadPodVector<char>(is);
  snap->solution_.source.assign(source.begin(), source.end());
  snap->solution_.sets = ReadPodVector<SetId>(is);
  snap->set_coverage_ = std::make_unique<CountSketch>(CountSketch::Load(is));
  snap->blob_ = blob;
  return snap;
}

size_t CoverageSnapshot::MemoryBytes() const {
  return blob_.size() + set_coverage_->MemoryBytes() +
         solution_.sets.size() * sizeof(SetId);
}

}  // namespace streamkc
