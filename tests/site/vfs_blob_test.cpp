// The blob contract of Vfs file content: copies between sites share one
// blob, equal fresh bytes intern to one blob, hash collisions stay apart,
// faults never reach the intern table, and concurrent writers of equal
// bytes end with one blob.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "elf/builder.hpp"
#include "feam/bdc.hpp"
#include "feam/caches.hpp"
#include "site/site.hpp"
#include "site/vfs.hpp"
#include "support/blob.hpp"

namespace feam::site {
namespace {

support::Bytes pattern(std::size_t size, std::uint8_t seed) {
  support::Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7 + (i >> 9));
  }
  return out;
}

TEST(VfsBlob, CopyBetweenSitesSharesOneBlob) {
  Vfs home;
  Vfs target;
  const support::Bytes bytes = pattern(64 * 1024, 1);
  ASSERT_TRUE(home.write_file("/apps/cg.B", bytes));
  const std::size_t blobs = support::interned_blobs();

  ASSERT_TRUE(
      target.write_file("/home/user/cg.B", home.read_blob("/apps/cg.B")));
  EXPECT_EQ(target.read_blob("/home/user/cg.B"), home.read_blob("/apps/cg.B"));
  EXPECT_EQ(support::interned_blobs(), blobs);

  // The source's rewrite and removal touch only the source's reference.
  ASSERT_TRUE(home.write_file("/apps/cg.B", pattern(64 * 1024, 2)));
  ASSERT_NE(target.read("/home/user/cg.B"), nullptr);
  EXPECT_EQ(*target.read("/home/user/cg.B"), bytes);
  ASSERT_TRUE(home.remove("/apps/cg.B"));
  EXPECT_EQ(*target.read("/home/user/cg.B"), bytes);
}

TEST(VfsBlob, IdenticalFreshBytesAtTwoSitesInternToOneBlob) {
  const std::size_t blobs = support::interned_blobs();
  {
    Vfs a;
    Vfs b;
    ASSERT_TRUE(a.write_file("/usr/lib64/libm.so.6", pattern(20000, 3)));
    ASSERT_TRUE(b.write_file("/usr/local/lib/libm.so.6", pattern(20000, 3)));
    EXPECT_EQ(a.read_blob("/usr/lib64/libm.so.6"),
              b.read_blob("/usr/local/lib/libm.so.6"));
    EXPECT_EQ(support::interned_blobs(), blobs + 1);

    // Sharing a blob leaves write stamps per write.
    ASSERT_TRUE(a.write_file("/tmp/libm.copy", pattern(20000, 3)));
    EXPECT_EQ(a.read_blob("/tmp/libm.copy"),
              a.read_blob("/usr/lib64/libm.so.6"));
    EXPECT_NE(a.file_version("/tmp/libm.copy"),
              a.file_version("/usr/lib64/libm.so.6"));
  }
  // The table holds no strong reference: the blob died with its files.
  EXPECT_EQ(support::interned_blobs(), blobs);
}

// A shared object whose build-compiler stamp sits at `comment_version`,
// behind a padding comment that moves the stamp out of content_hash's
// head window, with a text section large enough for sampling to apply.
support::Bytes stamped_library(const std::string& comment_version) {
  elf::ElfSpec spec;
  spec.isa = elf::Isa::kX86_64;
  spec.kind = elf::FileKind::kSharedObject;
  spec.soname = "libstamp.so.1";
  spec.needed = {"libc.so.6"};
  spec.comments = {"padding " + std::string(3000, '.'),
                   "GCC: (GNU) " + comment_version};
  spec.text_size = 64 * 1024;
  return elf::build_image(spec);
}

TEST(VfsBlob, NaturalHashCollisionStaysTwoBlobsWithTwoDescriptions) {
  const support::Bytes a = stamped_library("4.1.2");
  const support::Bytes b = stamped_library("4.4.2");
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 8u * 1024);
  ASSERT_NE(a, b);
  // The bytes differ only outside the sampled windows: a natural collision.
  ASSERT_EQ(support::content_hash(a), support::content_hash(b));

  Site s;
  s.name = "collision-host";
  s.isa = elf::Isa::kX86_64;
  ASSERT_TRUE(s.vfs.write_file("/lib64/liba.so", a));
  ASSERT_TRUE(s.vfs.write_file("/lib64/libb.so", b));
  EXPECT_NE(s.vfs.read_blob("/lib64/liba.so"),
            s.vfs.read_blob("/lib64/libb.so"));
  EXPECT_EQ(*s.vfs.read("/lib64/liba.so"), a);
  EXPECT_EQ(*s.vfs.read("/lib64/libb.so"), b);

  BdcCache cache;
  const auto first = cache.describe(s, "/lib64/liba.so");
  const auto second = cache.describe(s, "/lib64/libb.so");
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(first.value().build_compiler, "GCC: (GNU) 4.1.2");
  EXPECT_EQ(second.value().build_compiler, "GCC: (GNU) 4.4.2");
  EXPECT_EQ(first.value().build_compiler,
            Bdc::describe(s, "/lib64/liba.so").value().build_compiler);

  // Both entries are served as hits afterwards, each with its own answer.
  EXPECT_EQ(cache.describe(s, "/lib64/liba.so").value().build_compiler,
            "GCC: (GNU) 4.1.2");
  EXPECT_EQ(cache.describe(s, "/lib64/libb.so").value().build_compiler,
            "GCC: (GNU) 4.4.2");
  EXPECT_EQ(cache.hits(), 2u);
}

std::shared_ptr<FaultInjector> always_faulting() {
  FaultInjector::Options options;
  options.seed = 7;
  options.rate = 1.0;
  options.enoent = false;
  options.eio = false;  // only short reads and torn writes
  auto injector = std::make_shared<FaultInjector>(options);
  injector->set_enabled(true);
  return injector;
}

TEST(VfsBlob, TornWritesAndShortReadsLeaveTheInternTableAlone) {
  Vfs vfs;
  const support::Bytes original = pattern(30000, 4);
  ASSERT_TRUE(vfs.write_file("/usr/local/lib/libx.so", original));
  const support::Blob blob = vfs.read_blob("/usr/local/lib/libx.so");
  const std::size_t blobs = support::interned_blobs();
  vfs.set_fault_injector(always_faulting());

  // A torn overwrite and a torn fresh write: nothing lands, nothing interns.
  EXPECT_FALSE(vfs.write_file("/usr/local/lib/libx.so", pattern(30000, 5)));
  EXPECT_FALSE(vfs.write_file("/usr/local/lib/liby.so", pattern(30000, 6)));
  EXPECT_EQ(support::interned_blobs(), blobs);

  // A short read is a private truncated copy, never the file's blob.
  const support::Blob truncated = vfs.read_blob("/usr/local/lib/libx.so");
  ASSERT_NE(truncated, nullptr);
  EXPECT_NE(truncated, blob);
  EXPECT_LT(truncated->size(), original.size());
  const support::Bytes* short_view = vfs.read("/usr/local/lib/libx.so");
  ASSERT_NE(short_view, nullptr);
  EXPECT_NE(short_view, blob.get());
  EXPECT_EQ(support::interned_blobs(), blobs);

  vfs.set_fault_injector(nullptr);
  EXPECT_EQ(vfs.read_blob("/usr/local/lib/libx.so"), blob);
  EXPECT_EQ(*blob, original);
  EXPECT_FALSE(vfs.exists("/usr/local/lib/liby.so"));
}

TEST(VfsBlob, ConcurrentWritersOfEqualBytesEndWithOneBlob) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<Vfs> sites(kThreads);
  const std::size_t blobs = support::interned_blobs();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&sites, t, round] {
        sites[static_cast<std::size_t>(t)].write_file(
            "/tmp/payload", pattern(40000, static_cast<std::uint8_t>(round)));
      });
    }
    for (auto& writer : writers) writer.join();
    const support::Blob first = sites[0].read_blob("/tmp/payload");
    for (const Vfs& vfs : sites) {
      EXPECT_EQ(vfs.read_blob("/tmp/payload"), first) << "round " << round;
    }
    // One blob per round: the previous round's died as this one replaced it.
    EXPECT_EQ(support::interned_blobs(), blobs + 1) << "round " << round;
  }
}

}  // namespace
}  // namespace feam::site
