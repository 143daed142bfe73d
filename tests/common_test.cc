#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/content_hash.h"
#include "common/crc32.h"
#include "common/mapped_file.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/storage.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"

namespace freehgc {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad ratio");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad ratio");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad ratio");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::OutOfRange("").code(),      Status::FailedPrecondition("").code(),
      Status::Internal("").code(),        Status::Unimplemented("").code(),
      Status::ResourceExhausted("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = []() -> Status {
    FREEHGC_RETURN_IF_ERROR(Status::Internal("inner"));
    return Status::OK();
  };
  auto passes = []() -> Status {
    FREEHGC_RETURN_IF_ERROR(Status::OK());
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
  EXPECT_TRUE(passes().ok());
}

// --- Result ----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-7), -7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    FREEHGC_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).value(), 11);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyFriendly) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
    if (va != c.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, WeightedFavorsHeavyIndex) {
  Rng rng(13);
  std::vector<double> w = {0.05, 0.9, 0.05};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) ++counts[rng.NextWeighted(w)];
  EXPECT_GT(counts[1], counts[0] * 5);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(17);
  const auto s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<int32_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int32_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(RngTest, SampleClampsToPopulation) {
  Rng rng(19);
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 100).size(), 5u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(0, 3).empty());
  EXPECT_TRUE(rng.SampleWithoutReplacement(3, 0).empty());
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- string_util ------------------------------------------------------------

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x,,y", ','), (std::vector<std::string>{"x", "", "y"}));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0B");
  EXPECT_EQ(HumanBytes(1536), "1.5KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0MB");
}

TEST(StringUtilTest, DisplayWidth) {
  EXPECT_EQ(DisplayWidth(""), 0u);
  EXPECT_EQ(DisplayWidth("abc"), 3u);
  // "±" is two bytes but one terminal column.
  EXPECT_EQ(std::string("±").size(), 2u);
  EXPECT_EQ(DisplayWidth("±"), 1u);
  EXPECT_EQ(DisplayWidth("91.27 ± 0.46"), 12u);
}

TEST(StringUtilTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

// --- TablePrinter ----------------------------------------------------------

TEST(TablePrinterTest, ToJsonEscapesAndPadsRows) {
  TablePrinter t({"Method", "Acc"});
  t.AddRow({"Free\"HGC", "91.27 ± 0.46"});
  t.AddRow({"short"});  // padded to header arity
  EXPECT_EQ(t.ToJson(),
            "{\"headers\": [\"Method\", \"Acc\"], "
            "\"rows\": [[\"Free\\\"HGC\", \"91.27 ± 0.46\"], "
            "[\"short\", \"\"]]}");
}

TEST(TablePrinterTest, RightAlignsNumericColumnsByDisplayWidth) {
  TablePrinter t({"Method", "Acc"});
  t.AddRow({"FreeHGC", "91.27 ± 0.46"});
  t.AddRow({"HGCond", "OOM"});
  testing::internal::CaptureStdout();
  t.Print();
  const std::string out = testing::internal::GetCapturedStdout();
  // Method column is text (left-aligned); Acc is numeric (right-aligned,
  // "OOM" counts as a numeric placeholder). The "±" must occupy one
  // column, so the numeric column pads to 12 display cells, not 13 bytes.
  EXPECT_NE(out.find("| FreeHGC | 91.27 ± 0.46 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| HGCond  |          OOM |"), std::string::npos) << out;
}

// --- Timer -----------------------------------------------------------------

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
  const double a = t.ElapsedMillis();
  const double b = t.ElapsedMillis();
  EXPECT_LE(a, b);  // monotone
  t.Reset();
  EXPECT_LE(t.ElapsedSeconds(), b / 1e3);
}

// --- ContentHash -----------------------------------------------------------

uint64_t HashOf(std::string_view s) {
  ContentHash h;
  h.Bytes(s.data(), s.size());
  return h.Digest();
}

TEST(ContentHashTest, MatchesXxh64KnownVectors) {
  // XXH64 with seed 0: the empty input, a sub-stripe input, and one that
  // spans a full 32-byte stripe plus a tail.
  EXPECT_EQ(HashOf(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(HashOf("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(HashOf("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(HashOf("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
}

TEST(ContentHashTest, DigestIgnoresHowTheBytesAreSplit) {
  // One byte sequence fed whole, then under random split points: 1-byte
  // pieces (the separator tags), unaligned tails and empty spans must all
  // give the same digest.
  Rng rng(42);
  for (size_t n : {0u, 1u, 7u, 31u, 32u, 33u, 64u, 1000u, 4099u}) {
    std::vector<unsigned char> bytes(n);
    for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextBounded(256));
    ContentHash whole;
    whole.Bytes(bytes.data(), bytes.size());
    const uint64_t want = whole.Digest();
    for (int trial = 0; trial < 50; ++trial) {
      ContentHash split;
      size_t pos = 0;
      while (pos < n) {
        size_t len;
        switch (rng.NextBounded(4)) {
          case 0: len = 0; break;  // empty span
          case 1: len = 1; break;  // a tag-sized piece
          case 2: len = 1 + rng.NextBounded(40); break;  // unaligned
          default: len = rng.NextBounded(n - pos + 1); break;
        }
        len = std::min(len, n - pos);
        split.Bytes(bytes.data() + pos, len);
        pos += len;
      }
      split.Bytes(nullptr, 0);
      EXPECT_EQ(split.Digest(), want) << n << " bytes, trial " << trial;
    }
  }
  // Digest() reads without consuming: feeding may continue after it.
  ContentHash a, b;
  a.Bytes("abc", 3);
  (void)a.Digest();
  a.Bytes("def", 3);
  b.Bytes("abcdef", 6);
  EXPECT_EQ(a.Digest(), b.Digest());
}

// --- Crc32 -----------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
  // The standard CRC-32 check value ("123456789" under IEEE 802.3).
  const char check[] = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalChainingEqualsOneShot) {
  Rng rng(7);
  std::vector<uint8_t> buf(10000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t cut : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                     size_t{9999}, buf.size()}) {
    const uint32_t head = Crc32(buf.data(), cut);
    EXPECT_EQ(Crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut=" << cut;
  }
}

TEST(Crc32Test, SimdAndPortableKernelsAgree) {
  // Differential: the dispatching kernel vs the slice-by-8 reference, at
  // lengths straddling the SIMD kernel's block and tail handling.
  Rng rng(13);
  std::vector<uint8_t> buf(70000);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{63},
                   size_t{64}, size_t{65}, size_t{255}, size_t{4096},
                   size_t{65521}, buf.size()}) {
    // Offset by 3 so the SIMD path also exercises misaligned input.
    const size_t off = n < 3 ? 0 : 3;
    const size_t len = n - off;
    EXPECT_EQ(Crc32(buf.data() + off, len, 0x1234u),
              internal::Crc32Portable(buf.data() + off, len, 0x1234u))
        << "n=" << n;
  }
}

// --- MappedFile ------------------------------------------------------------

TEST(MappedFileTest, MapsFileContentsReadOnly) {
  const std::string path = "/tmp/freehgc_test_mapped_file.bin";
  const std::string content = "freehgc mapped-file test payload";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
  }
  auto mf = MappedFile::Open(path);
  ASSERT_TRUE(mf.ok()) << mf.status().ToString();
  ASSERT_EQ(mf->size(), content.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(mf->data()),
                        mf->size()),
            content);
  EXPECT_EQ(mf->path(), path);
  // Advisory hints must never break the mapping.
  for (auto p : {MappedFile::AccessPattern::kSequential,
                 MappedFile::AccessPattern::kRandom,
                 MappedFile::AccessPattern::kWillNeed,
                 MappedFile::AccessPattern::kNormal}) {
    mf->Advise(p);
    EXPECT_EQ(mf->data()[0], static_cast<uint8_t>('f'));
  }
  std::remove(path.c_str());
}

TEST(MappedFileTest, MissingFileIsAnError) {
  EXPECT_FALSE(MappedFile::Open("/tmp/freehgc_no_such_file_xyz").ok());
}

TEST(MappedFileTest, EmptyFileMapsToNullView) {
  const std::string path = "/tmp/freehgc_test_mapped_empty.bin";
  std::fclose(std::fopen(path.c_str(), "wb"));
  auto mf = MappedFile::Open(path);
  ASSERT_TRUE(mf.ok()) << mf.status().ToString();
  EXPECT_EQ(mf->size(), 0u);
  std::remove(path.c_str());
}

TEST(MappedFileTest, SharedMappingOutlivesUnlink) {
  const std::string path = "/tmp/freehgc_test_mapped_shared.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("keepalive", f);
    std::fclose(f);
  }
  auto mf = MappedFile::OpenShared(path);
  ASSERT_TRUE(mf.ok());
  std::remove(path.c_str());  // pages stay valid until the last ref drops
  std::shared_ptr<const MappedFile> held = *mf;
  EXPECT_EQ(held->size(), 9u);
  EXPECT_EQ(held->data()[0], static_cast<uint8_t>('k'));
}

// --- ArrayRef --------------------------------------------------------------

TEST(ArrayRefTest, OwnedAndViewStates) {
  ArrayRef<int32_t> owned(std::vector<int32_t>{1, 2, 3});
  EXPECT_FALSE(owned.is_view());
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned.OwnedBytes(), 3 * sizeof(int32_t));
  EXPECT_EQ(owned[2], 3);

  const std::vector<int32_t> backing = {7, 8, 9, 10};
  auto keepalive = std::make_shared<int>(0);
  ArrayRef<int32_t> view = ArrayRef<int32_t>::View(
      std::span<const int32_t>(backing), keepalive);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.OwnedBytes(), 0u);
  EXPECT_EQ(view.data(), backing.data());  // zero-copy

  // Copying a view shares the keepalive; copying owned deep-copies.
  ArrayRef<int32_t> view_copy = view;
  EXPECT_TRUE(view_copy.is_view());
  EXPECT_EQ(view_copy.data(), backing.data());
  EXPECT_GE(keepalive.use_count(), 3);
  ArrayRef<int32_t> owned_copy = owned;
  EXPECT_NE(owned_copy.data(), owned.data());

  // Mutable() detaches copy-on-write: the view becomes owned, the
  // backing is untouched.
  view_copy.Mutable()[0] = 99;
  EXPECT_FALSE(view_copy.is_view());
  EXPECT_EQ(view_copy[0], 99);
  EXPECT_EQ(backing[0], 7);
  EXPECT_EQ(view[0], 7);
}

}  // namespace
}  // namespace freehgc
