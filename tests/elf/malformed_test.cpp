// The parser must reject malformed and truncated images with an error —
// never crash or read out of bounds. FEAM meets arbitrary files on real
// sites (shell-script wrappers, truncated copies), so this is a
// load-bearing property, not defensive decoration.
#include <gtest/gtest.h>

#include "elf/builder.hpp"
#include "elf/constants.hpp"
#include "elf/file.hpp"
#include "elf/hash.hpp"

namespace feam::elf {
namespace {

using support::Bytes;

Bytes valid_image() {
  ElfSpec spec;
  spec.needed = {"libc.so.6", "libmpi.so.0"};
  spec.undefined_symbols = {{"printf", "GLIBC_2.2.5", "libc.so.6"}};
  spec.comments = {"GCC: (GNU) 4.4.5"};
  spec.text_size = 256;
  return build_image(spec);
}

TEST(Malformed, EmptyFile) {
  const Bytes empty;
  EXPECT_FALSE(ElfFile::parse(empty).ok());
}

TEST(Malformed, NotElf) {
  const std::string script = "#!/bin/sh\nexec ./real-binary \"$@\"\n";
  const Bytes data(script.begin(), script.end());
  const auto r = ElfFile::parse(data);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("magic"), std::string::npos);
  EXPECT_FALSE(looks_like_elf(data));
}

TEST(Malformed, LooksLikeElfHelper) {
  EXPECT_TRUE(looks_like_elf(valid_image()));
  EXPECT_FALSE(looks_like_elf({0x7f, 'E', 'L'}));
}

TEST(Malformed, BadClass) {
  Bytes img = valid_image();
  img[kEiClass] = 9;
  EXPECT_FALSE(ElfFile::parse(img).ok());
}

TEST(Malformed, BadEndianTag) {
  Bytes img = valid_image();
  img[kEiData] = 0;
  EXPECT_FALSE(ElfFile::parse(img).ok());
}

TEST(Malformed, ClassMachineMismatch) {
  // Flip a 64-bit image's class tag to 32-bit: header now lies about the
  // machine's word size.
  Bytes img = valid_image();
  img[kEiClass] = kClass32;
  EXPECT_FALSE(ElfFile::parse(img).ok());
}

// Property sweep: truncating a valid image at any prefix length must yield
// a parse error (or, for very long prefixes that still contain all parsed
// structures, possibly success) — but never a crash.
class TruncationTest : public ::testing::TestWithParam<double> {};

TEST_P(TruncationTest, NoCrashOnTruncation) {
  const Bytes img = valid_image();
  const auto len = static_cast<std::size_t>(GetParam() * static_cast<double>(img.size()));
  const Bytes prefix(img.begin(), img.begin() + static_cast<std::ptrdiff_t>(len));
  const auto r = ElfFile::parse(prefix);  // must not crash
  if (len < 64) {
    EXPECT_FALSE(r.ok());
  }
}

INSTANTIATE_TEST_SUITE_P(PrefixFractions, TruncationTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.2, 0.3,
                                           0.5, 0.7, 0.9, 0.99));

TEST(Malformed, ByteFlipSweepNeverCrashes) {
  // Flip each byte of the header region in turn; parse must stay memory-safe
  // and either succeed or produce an error.
  const Bytes img = valid_image();
  for (std::size_t i = 0; i < 128 && i < img.size(); ++i) {
    Bytes mutated = img;
    mutated[i] ^= 0xff;
    (void)ElfFile::parse(mutated);
  }
  SUCCEED();
}

TEST(ElfHash, KnownValues) {
  // Reference values of the SysV elf_hash function.
  EXPECT_EQ(elf_hash(""), 0u);
  EXPECT_EQ(elf_hash("GLIBC_2.0"), 0xd696910u);
  EXPECT_EQ(elf_hash("printf"), 0x77905a6u);
}

}  // namespace
}  // namespace feam::elf
