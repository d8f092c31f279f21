// Spec -> image -> parse round-trip: the contract between the simulated
// toolchain (which writes ELF images) and FEAM's tools (which read them).
#include <gtest/gtest.h>

#include <iterator>
#include <string_view>

#include "elf/builder.hpp"
#include "elf/file.hpp"
#include "support/rng.hpp"

namespace feam::elf {
namespace {

using support::Bytes;

// Parsed accessors return borrowed views; materialize them for comparison
// against the owned-string spec fields.
std::vector<std::string> owned(const std::vector<std::string_view>& views) {
  return {views.begin(), views.end()};
}

// A spec resembling an NPB binary compiled with Open MPI + gfortran on a
// glibc 2.5 site.
ElfSpec typical_app_spec(Isa isa) {
  ElfSpec spec;
  spec.isa = isa;
  spec.kind = FileKind::kExecutable;
  spec.needed = {"libmpi.so.0",  "libmpi_f77.so.0", "libgfortran.so.1",
                 "libm.so.6",    "libnsl.so.1",     "libutil.so.1",
                 "libc.so.6"};
  spec.undefined_symbols = {
      {"MPI_Init", "", ""},
      {"memcpy", "GLIBC_2.3.4", "libc.so.6"},
      {"printf", "GLIBC_2.2.5", "libc.so.6"},
      {"__libc_start_main", "GLIBC_2.2.5", "libc.so.6"},
      {"sqrt", "GLIBC_2.2.5", "libm.so.6"},
      {"_gfortran_st_write", "GFORTRAN_1.0", "libgfortran.so.1"},
  };
  spec.comments = {"GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-46)",
                   "FEAM-sim linker 1.0"};
  spec.abi = AbiNote{"GNU", "4.1.2", "openmpi", "1.4", 0xabcd1234, 2};
  spec.text_size = 32 * 1024;
  spec.content_seed = 777;
  return spec;
}

// A spec resembling glibc itself: defines versions, has a soname.
ElfSpec libc_spec(Isa isa) {
  ElfSpec spec;
  spec.isa = isa;
  spec.kind = FileKind::kSharedObject;
  spec.soname = "libc.so.6";
  spec.version_definitions = {"GLIBC_2.0", "GLIBC_2.1", "GLIBC_2.2.5",
                              "GLIBC_2.3", "GLIBC_2.3.4", "GLIBC_2.4",
                              "GLIBC_2.5"};
  spec.defined_symbols = {{"memcpy", "GLIBC_2.3.4"},
                          {"printf", "GLIBC_2.2.5"},
                          {"malloc", "GLIBC_2.0"}};
  spec.text_size = 1024;
  return spec;
}

class RoundTripIsaTest : public ::testing::TestWithParam<Isa> {};

TEST_P(RoundTripIsaTest, ExecutableMetadataSurvives) {
  const ElfSpec spec = typical_app_spec(GetParam());
  const Bytes image = build_image(spec);
  const auto parsed = ElfFile::parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const ElfFile& f = parsed.value();

  EXPECT_EQ(f.isa(), spec.isa);
  EXPECT_EQ(f.bits(), isa_bits(spec.isa));
  EXPECT_EQ(f.kind(), FileKind::kExecutable);
  EXPECT_TRUE(f.is_dynamic());
  EXPECT_EQ(owned(f.needed()), spec.needed);
  EXPECT_FALSE(f.soname().has_value());
  EXPECT_EQ(owned(f.comments()), spec.comments);

  // Version references grouped by file, order preserved.
  ASSERT_EQ(f.version_references().size(), 3u);
  EXPECT_EQ(f.version_references()[0].file, "libc.so.6");
  EXPECT_EQ(owned(f.version_references()[0].versions),
            (std::vector<std::string>{"GLIBC_2.3.4", "GLIBC_2.2.5"}));
  EXPECT_EQ(f.version_references()[1].file, "libm.so.6");
  EXPECT_EQ(f.version_references()[2].file, "libgfortran.so.1");
  EXPECT_EQ(owned(f.version_references()[2].versions),
            (std::vector<std::string>{"GFORTRAN_1.0"}));

  // ABI note survives.
  ASSERT_TRUE(f.abi_note().has_value());
  EXPECT_EQ(f.abi_note()->compiler_family, "GNU");
  EXPECT_EQ(f.abi_note()->compiler_version, "4.1.2");
  EXPECT_EQ(f.abi_note()->abi_fingerprint, 0xabcd1234u);
  EXPECT_EQ(f.abi_note()->fp_model, 2u);

  // Symbols: all six undefined, with version annotations.
  ASSERT_EQ(f.dynamic_symbols().size(), 6u);
  EXPECT_EQ(f.dynamic_symbols()[0].name, "MPI_Init");
  EXPECT_TRUE(f.dynamic_symbols()[0].version.empty());
  EXPECT_FALSE(f.dynamic_symbols()[0].defined);
  EXPECT_EQ(f.dynamic_symbols()[1].name, "memcpy");
  EXPECT_EQ(f.dynamic_symbols()[1].version, "GLIBC_2.3.4");
}

TEST_P(RoundTripIsaTest, SharedObjectMetadataSurvives) {
  const ElfSpec spec = libc_spec(GetParam());
  const Bytes image = build_image(spec);
  const auto parsed = ElfFile::parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const ElfFile& f = parsed.value();

  EXPECT_EQ(f.kind(), FileKind::kSharedObject);
  ASSERT_TRUE(f.soname().has_value());
  EXPECT_EQ(*f.soname(), "libc.so.6");
  EXPECT_EQ(owned(f.version_definitions()), spec.version_definitions);
  EXPECT_TRUE(f.version_references().empty());

  ASSERT_EQ(f.dynamic_symbols().size(), 3u);
  EXPECT_TRUE(f.dynamic_symbols()[0].defined);
  EXPECT_EQ(f.dynamic_symbols()[0].version, "GLIBC_2.3.4");
  EXPECT_EQ(f.dynamic_symbols()[2].version, "GLIBC_2.0");
}

INSTANTIATE_TEST_SUITE_P(AllIsas, RoundTripIsaTest,
                         ::testing::Values(Isa::kX86, Isa::kX86_64, Isa::kPpc,
                                           Isa::kPpc64, Isa::kAarch64),
                         [](const auto& param_info) {
                           return std::string(isa_name(param_info.param)) ==
                                          "x86-64"
                                      ? "x86_64"
                                      : isa_name(param_info.param);
                         });

TEST(RoundTrip, RpathSurvivesColonJoining) {
  ElfSpec spec = typical_app_spec(Isa::kX86_64);
  spec.rpath = {"/opt/openmpi-1.4.3-intel/lib", "/usr/local/lib"};
  const Bytes image = build_image(spec);
  const auto parsed = ElfFile::parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(owned(parsed.value().rpath()), spec.rpath);
}

TEST(RoundTrip, EmptySpecStillValid) {
  ElfSpec spec;
  spec.text_size = 16;
  const Bytes image = build_image(spec);
  const auto parsed = ElfFile::parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().needed().empty());
  EXPECT_TRUE(parsed.value().version_references().empty());
  EXPECT_TRUE(parsed.value().comments().empty());
  EXPECT_FALSE(parsed.value().abi_note().has_value());
}

TEST(RoundTrip, DeterministicImages) {
  const ElfSpec spec = typical_app_spec(Isa::kX86_64);
  EXPECT_EQ(build_image(spec), build_image(spec));
}

TEST(RoundTrip, TextSizeDrivesFileSize) {
  ElfSpec small = typical_app_spec(Isa::kX86_64);
  ElfSpec large = small;
  small.text_size = 1024;
  large.text_size = 1024 * 1024;
  EXPECT_GT(build_image(large).size(), build_image(small).size() + 900 * 1024);
}

TEST(RoundTrip, BitnessIsVisible) {
  const Bytes image32 = build_image(typical_app_spec(Isa::kX86));
  const Bytes image64 = build_image(typical_app_spec(Isa::kX86_64));
  EXPECT_EQ(ElfFile::parse(image32).value().bits(), 32);
  EXPECT_EQ(ElfFile::parse(image64).value().bits(), 64);
}

TEST(RoundTrip, BigEndianImagesParse) {
  const ElfSpec spec = libc_spec(Isa::kPpc64);
  const Bytes image = build_image(spec);
  // e_ident[EI_DATA] must be 2 (big-endian) for ppc64.
  EXPECT_EQ(image[5], 2);
  const auto parsed = ElfFile::parse(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value().isa(), Isa::kPpc64);
}

TEST(RoundTrip, ImagesCarryNoCapacitySlack) {
  // Interned blobs keep the vector they were handed, spare capacity and
  // all, so an image must be allocated at exactly its size.
  for (const Isa isa : {Isa::kX86_64, Isa::kX86, Isa::kPpc64}) {
    for (const std::uint64_t text_size :
         {std::uint64_t{4} * 1024, std::uint64_t{45} * 1024,
          std::uint64_t{1434} * 1024}) {
      ElfSpec spec = typical_app_spec(isa);
      spec.text_size = text_size;
      const Bytes image = build_image(spec);
      EXPECT_EQ(image.capacity(), image.size())
          << isa_name(isa) << " with " << text_size << " bytes of text";
    }
  }
}

// The three shapes the digest pins cover: a dynamic shared object with
// versioned imports; the same with an abi note, comments, verdefs and an
// rpath; and a static executable.
enum class Variant { kPlain, kExtras, kStatic };

ElfSpec pinned_spec(Isa isa, std::uint64_t text_size, Variant variant) {
  ElfSpec spec;
  spec.isa = isa;
  spec.text_size = text_size;
  spec.content_seed = 0x5eed + text_size;
  if (variant == Variant::kStatic) {
    spec.static_link = true;
    return spec;
  }
  spec.kind = FileKind::kSharedObject;
  spec.soname = "libpin.so.1";
  spec.needed = {"libm.so.6", "libc.so.6"};
  spec.undefined_symbols = {{"MPI_Init", "", ""},
                            {"sqrt", "GLIBC_2.2.5", "libm.so.6"},
                            {"memcpy", "GLIBC_2.3.4", "libc.so.6"}};
  spec.defined_symbols = {{"pin_entry", ""}};
  if (variant == Variant::kExtras) {
    spec.abi = AbiNote{"Intel", "11.1", "mvapich2", "1.4", 0x1234abcd, 3};
    spec.comments = {"GCC: (GNU) 4.4.5", "FEAM-sim linker 1.0"};
    spec.version_definitions = {"PIN_1.0", "PIN_1.1"};
    spec.defined_symbols.push_back({"pin_next", "PIN_1.1"});
    spec.rpath = {"/apps/pin/lib", "/usr/local/lib"};
  }
  return spec;
}

struct PinnedImage {
  Isa isa;
  std::uint64_t text_size;
  Variant variant;
  std::uint64_t digest;  // FNV-1a of the whole image
};

// Text sizes 13 and 46,085 end in a partial eight-byte word of .text.
constexpr PinnedImage kPinnedImages[] = {
    {Isa::kX86, 0, Variant::kPlain, 0x78ca6be56951cb5aull},
    {Isa::kX86, 0, Variant::kExtras, 0x8756551b2938d222ull},
    {Isa::kX86, 0, Variant::kStatic, 0xc4cb084775627d74ull},
    {Isa::kX86, 13, Variant::kPlain, 0x1f35cabd87390ddcull},
    {Isa::kX86, 13, Variant::kExtras, 0x520753bd0066f975ull},
    {Isa::kX86, 13, Variant::kStatic, 0xd2796a9f80cd7f17ull},
    {Isa::kX86, 4096, Variant::kPlain, 0x005abcb264dfd0cbull},
    {Isa::kX86, 4096, Variant::kExtras, 0xb361ddbf49ef7857ull},
    {Isa::kX86, 4096, Variant::kStatic, 0x77cc6895c2223f09ull},
    {Isa::kX86, 46085, Variant::kPlain, 0x649fcdd506178a3full},
    {Isa::kX86, 46085, Variant::kExtras, 0x863e5f5fe1bd1552ull},
    {Isa::kX86, 46085, Variant::kStatic, 0xdb5d47fd05ece9a4ull},
    {Isa::kX86_64, 0, Variant::kPlain, 0x2bfaae5989dbf64full},
    {Isa::kX86_64, 0, Variant::kExtras, 0x0f85d1cc0da6b278ull},
    {Isa::kX86_64, 0, Variant::kStatic, 0x9ef13719052cf3caull},
    {Isa::kX86_64, 13, Variant::kPlain, 0x76c3104f9c28aad4ull},
    {Isa::kX86_64, 13, Variant::kExtras, 0x34e606a39875c35eull},
    {Isa::kX86_64, 13, Variant::kStatic, 0x5f17bfa1214d8961ull},
    {Isa::kX86_64, 4096, Variant::kPlain, 0xda8333811da34c2aull},
    {Isa::kX86_64, 4096, Variant::kExtras, 0x25a26741fda81359ull},
    {Isa::kX86_64, 4096, Variant::kStatic, 0x5f9a066ea35ba393ull},
    {Isa::kX86_64, 46085, Variant::kPlain, 0x70aa207ad87bc6f7ull},
    {Isa::kX86_64, 46085, Variant::kExtras, 0xfdb3fa9094529c6dull},
    {Isa::kX86_64, 46085, Variant::kStatic, 0xe71d8a4777e388e6ull},
    {Isa::kPpc, 0, Variant::kPlain, 0xb2791ca17b2a7d54ull},
    {Isa::kPpc, 0, Variant::kExtras, 0x6ea64fff44b9e85eull},
    {Isa::kPpc, 0, Variant::kStatic, 0xcdb9be3b9bd76f54ull},
    {Isa::kPpc, 13, Variant::kPlain, 0x278a5e8d1a8cc466ull},
    {Isa::kPpc, 13, Variant::kExtras, 0x26857900fb6baaf7ull},
    {Isa::kPpc, 13, Variant::kStatic, 0xd5899f9658c9f8d1ull},
    {Isa::kPpc, 4096, Variant::kPlain, 0xad4130e90233eb0dull},
    {Isa::kPpc, 4096, Variant::kExtras, 0xf2bcb49a4d0ae6abull},
    {Isa::kPpc, 4096, Variant::kStatic, 0x5478710d6dcfdc69ull},
    {Isa::kPpc, 46085, Variant::kPlain, 0x1c18ebe47eccbd55ull},
    {Isa::kPpc, 46085, Variant::kExtras, 0xefd490e9c27349ccull},
    {Isa::kPpc, 46085, Variant::kStatic, 0xd1b88f454c2223faull},
    {Isa::kPpc64, 0, Variant::kPlain, 0x51a9f2ae3d55eef1ull},
    {Isa::kPpc64, 0, Variant::kExtras, 0x5ff63a3e65c81fb2ull},
    {Isa::kPpc64, 0, Variant::kStatic, 0xdb863882aca3def0ull},
    {Isa::kPpc64, 13, Variant::kPlain, 0x2bf014abfe4abf14ull},
    {Isa::kPpc64, 13, Variant::kExtras, 0xf42122c1e5e17e0cull},
    {Isa::kPpc64, 13, Variant::kStatic, 0xceb48c5057432535ull},
    {Isa::kPpc64, 4096, Variant::kPlain, 0x36974d654f05295cull},
    {Isa::kPpc64, 4096, Variant::kExtras, 0x23efc9db3daa37ffull},
    {Isa::kPpc64, 4096, Variant::kStatic, 0xf970104b969521d5ull},
    {Isa::kPpc64, 46085, Variant::kPlain, 0x533863cdf7f8a2d3ull},
    {Isa::kPpc64, 46085, Variant::kExtras, 0x9d37814cd6880613ull},
    {Isa::kPpc64, 46085, Variant::kStatic, 0xc471cd7bc4a47a66ull},
    {Isa::kAarch64, 0, Variant::kPlain, 0x23c7145bc7c862deull},
    {Isa::kAarch64, 0, Variant::kExtras, 0x8254f44662fcb271ull},
    {Isa::kAarch64, 0, Variant::kStatic, 0x572523c9d45ebfebull},
    {Isa::kAarch64, 13, Variant::kPlain, 0x8ce8ec3f0ca471d5ull},
    {Isa::kAarch64, 13, Variant::kExtras, 0x499ed8ed54a7bf87ull},
    {Isa::kAarch64, 13, Variant::kStatic, 0xbdd2eebfbbaa3738ull},
    {Isa::kAarch64, 4096, Variant::kPlain, 0x0ed64a01a5e0b727ull},
    {Isa::kAarch64, 4096, Variant::kExtras, 0x4907ab2f4282402cull},
    {Isa::kAarch64, 4096, Variant::kStatic, 0x3814483c438512deull},
    {Isa::kAarch64, 46085, Variant::kPlain, 0x4cb3278301ff1c26ull},
    {Isa::kAarch64, 46085, Variant::kExtras, 0xc8a3baa02e48f124ull},
    {Isa::kAarch64, 46085, Variant::kStatic, 0x5830b202bea49417ull},
};

TEST(RoundTrip, ImagesMatchPinnedDigests) {
  ASSERT_EQ(std::size(kPinnedImages), 5u * 4u * 3u);
  for (const PinnedImage& pin : kPinnedImages) {
    const Bytes image =
        build_image(pinned_spec(pin.isa, pin.text_size, pin.variant));
    const std::uint64_t digest = support::fnv1a(std::string_view(
        reinterpret_cast<const char*>(image.data()), image.size()));
    EXPECT_EQ(digest, pin.digest)
        << isa_name(pin.isa) << ", " << pin.text_size << " bytes of text, variant "
        << static_cast<int>(pin.variant) << ": 0x" << std::hex << digest;
  }
}

TEST(IsaModel, ExecutableOnRules) {
  EXPECT_TRUE(isa_executable_on(Isa::kX86, Isa::kX86_64));
  EXPECT_TRUE(isa_executable_on(Isa::kPpc, Isa::kPpc64));
  EXPECT_FALSE(isa_executable_on(Isa::kX86_64, Isa::kX86));
  EXPECT_FALSE(isa_executable_on(Isa::kPpc64, Isa::kX86_64));
  EXPECT_FALSE(isa_executable_on(Isa::kX86, Isa::kPpc64));
  for (const Isa isa : {Isa::kX86, Isa::kX86_64, Isa::kPpc, Isa::kPpc64}) {
    EXPECT_TRUE(isa_executable_on(isa, isa));
  }
}

}  // namespace
}  // namespace feam::elf
