// util/envelope.h: the one checksummed envelope frames, checkpoints and
// snapshots share. The parser must accept exactly the bytes the encoder
// wrote, report need-more on every strict prefix (stream reassembly and
// truncation are the same question), and reject every header-field and
// body corruption without ever returning a body.

#include "util/envelope.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/random.h"

namespace streamkc {
namespace {

constexpr uint32_t kMagic = 0x54455354;  // "TEST"
constexpr uint32_t kVersion = 3;

using Status = EnvelopeParse::Status;

std::string RandomBytes(uint64_t seed, size_t size) {
  std::string body(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    body[i] = static_cast<char>(SplitMix64(seed + i));
  }
  return body;
}

// Bit-at-a-time CRC-32 reference for the sliced implementation.
uint32_t ReferenceCrc32(const std::string& bytes) {
  uint32_t crc = ~0u;
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32, MatchesTheStandardCheckValueAndABitwiseReference) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Every length around the 8-byte slicing stride, at every alignment.
  const std::string bytes = RandomBytes(/*seed=*/5, 80);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; off + len <= bytes.size(); ++len) {
      const std::string piece = bytes.substr(off, len);
      ASSERT_EQ(Crc32(piece.data(), piece.size()), ReferenceCrc32(piece))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32, ChainedCallsEqualOneShot) {
  const std::string bytes = RandomBytes(/*seed=*/6, 100);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const uint32_t head = Crc32(bytes.data(), cut);
    EXPECT_EQ(Crc32(bytes.data() + cut, bytes.size() - cut, head),
              Crc32(bytes.data(), bytes.size()))
        << "cut=" << cut;
  }
}

TEST(Envelope, RoundTripsBodiesOfEverySize) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                      size_t{4096}}) {
    const std::string body = RandomBytes(size, size);
    const std::string bytes = EncodeEnvelope(kMagic, kVersion, body);
    ASSERT_EQ(bytes.size(), kEnvelopeHeaderBytes + size);
    const EnvelopeParse env = ParseEnvelope(bytes, kMagic, kVersion);
    ASSERT_EQ(env.status, Status::kOk) << env.error;
    EXPECT_EQ(env.body, body);
    EXPECT_EQ(env.size, bytes.size());
  }
}

TEST(Envelope, EveryStrictPrefixNeedsMoreAndTheWholeParses) {
  // Truncation and incremental reassembly are one question: a prefix is
  // never corrupt, never a body — just not there yet.
  const std::string bytes =
      EncodeEnvelope(kMagic, kVersion, RandomBytes(/*seed=*/7, 300));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_EQ(ParseEnvelope(std::string_view(bytes).substr(0, cut), kMagic,
                            kVersion)
                  .status,
              Status::kNeedMore)
        << "cut=" << cut;
  }
  EXPECT_EQ(ParseEnvelope(bytes, kMagic, kVersion).status, Status::kOk);
}

TEST(Envelope, BackToBackEnvelopesParseAtEverySplitPoint) {
  const std::string a = RandomBytes(/*seed=*/8, 50);
  const std::string b = RandomBytes(/*seed=*/9, 3);
  const std::string bytes = EncodeEnvelope(kMagic, kVersion, a) +
                            EncodeEnvelope(kMagic, kVersion, b);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    // A buffer holding bytes[0, cut): the first envelope parses as soon as
    // it is whole, the second only once the buffer ends.
    const std::string_view have = std::string_view(bytes).substr(0, cut);
    const EnvelopeParse first = ParseEnvelope(have, kMagic, kVersion);
    if (cut < kEnvelopeHeaderBytes + a.size()) {
      EXPECT_EQ(first.status, Status::kNeedMore) << "cut=" << cut;
      continue;
    }
    ASSERT_EQ(first.status, Status::kOk) << "cut=" << cut;
    EXPECT_EQ(first.body, a);
    const EnvelopeParse second =
        ParseEnvelope(have.substr(first.size), kMagic, kVersion);
    EXPECT_EQ(second.status,
              cut == bytes.size() ? Status::kOk : Status::kNeedMore)
        << "cut=" << cut;
    if (second.status == Status::kOk) {
      EXPECT_EQ(second.body, b);
    }
  }
}

TEST(Envelope, TrailingBytesAreLeftToTheCaller) {
  const std::string bytes =
      EncodeEnvelope(kMagic, kVersion, RandomBytes(/*seed=*/10, 40));
  const EnvelopeParse env = ParseEnvelope(bytes + "garbage", kMagic, kVersion);
  ASSERT_EQ(env.status, Status::kOk);
  // Whole-blob callers (checkpoints, snapshots) reject on this mismatch.
  EXPECT_EQ(env.size, bytes.size());
}

TEST(Envelope, BitFlipInEveryHeaderFieldAndTheBodyIsRejected) {
  const std::string good =
      EncodeEnvelope(kMagic, kVersion, RandomBytes(/*seed=*/11, 64));
  for (size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    const EnvelopeParse env = ParseEnvelope(bad, kMagic, kVersion);
    // A longer body_len reads as "wait for more" (a stream cannot tell
    // yet); every other flip is a verdict. Never a body.
    ASSERT_NE(env.status, Status::kOk) << "bit=" << bit;
    const size_t byte = bit / 8;
    const char* want = byte < 4    ? "bad magic"
                       : byte < 8  ? "unsupported version"
                       : byte < 16 ? nullptr
                                   : "crc mismatch";
    if (want != nullptr) {
      ASSERT_EQ(env.status, Status::kCorrupt) << "bit=" << bit;
      EXPECT_STREQ(env.error, want) << "bit=" << bit;
    }
  }
}

TEST(Envelope, ShorterBodyLenFailsTheCrc) {
  std::string bytes =
      EncodeEnvelope(kMagic, kVersion, RandomBytes(/*seed=*/12, 64));
  const uint64_t shorter = 63;
  std::memcpy(bytes.data() + 8, &shorter, sizeof(shorter));
  const EnvelopeParse env = ParseEnvelope(bytes, kMagic, kVersion);
  EXPECT_EQ(env.status, Status::kCorrupt);
  EXPECT_STREQ(env.error, "crc mismatch");
}

TEST(Envelope, OversizedLengthIsCorruptBeforeAnyBodyArrives) {
  // A header alone must be enough to reject an insane length: waiting for
  // 2^30+ bytes that never come would wedge a stream.
  std::string bytes = EncodeEnvelope(kMagic, kVersion, "x");
  const uint64_t huge = kMaxEnvelopeBody + 1;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  const EnvelopeParse env = ParseEnvelope(
      std::string_view(bytes).substr(0, kEnvelopeHeaderBytes), kMagic,
      kVersion);
  EXPECT_EQ(env.status, Status::kCorrupt);
  EXPECT_STREQ(env.error, "body length too large");
}

TEST(Envelope, AnotherTypesMagicOrVersionIsRejected) {
  const std::string bytes = EncodeEnvelope(kMagic, kVersion, "body");
  EXPECT_STREQ(ParseEnvelope(bytes, kMagic + 1, kVersion).error, "bad magic");
  EXPECT_STREQ(ParseEnvelope(bytes, kMagic, kVersion + 1).error,
               "unsupported version");
}

}  // namespace
}  // namespace streamkc
