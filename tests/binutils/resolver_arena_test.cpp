// Lifetime contract of the parsed-ELF memo: the cached ElfFile borrows
// the file's content blob, which the memo entry holds, so the views do
// not depend on the VFS node the caller read from. These tests mutate the
// VFS out from under a cached parse — rewriting the same path, deleting
// it, churning unrelated entries — and assert the old pointer's views
// still read correctly. Run under ASan, a stale borrow here is a
// heap-use-after-free.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "binutils/resolver_cache.hpp"
#include "elf/builder.hpp"
#include "site/site.hpp"

namespace feam::binutils {
namespace {

elf::ElfSpec lib_spec(const std::string& soname,
                      std::vector<std::string> needed,
                      std::vector<std::string> comments = {}) {
  elf::ElfSpec spec;
  spec.isa = elf::Isa::kX86_64;
  spec.kind = elf::FileKind::kSharedObject;
  spec.soname = soname;
  spec.needed = std::move(needed);
  spec.comments = std::move(comments);
  spec.text_size = 256;
  return spec;
}

site::Site make_host() {
  site::Site s;
  s.name = "arena-host";
  s.isa = elf::Isa::kX86_64;
  s.vfs.write_file("/lib64/libmpi.so.0",
                   elf::build_image(lib_spec(
                       "libmpi.so.0", {"libc.so.6", "libm.so.6"},
                       {"GCC: (GNU) 4.1.2", "FEAM-sim linker 1.0"})));
  return s;
}

// Parses through the cache and returns the memoized pointer.
const elf::ElfFile* cached_parse(ResolverCache& cache, site::Site& s,
                                 const std::string& path) {
  const support::Blob data = s.vfs.read_blob(path);
  EXPECT_NE(data, nullptr);
  return cache.parsed_elf(s, data);
}

TEST(ResolverArena, ViewsSurviveRewriteOfSameFile) {
  site::Site s = make_host();
  ResolverCache cache;
  const elf::ElfFile* before =
      cached_parse(cache, s, "/lib64/libmpi.so.0");
  ASSERT_NE(before, nullptr);
  ASSERT_TRUE(before->soname().has_value());

  // Rewriting the path drops the VFS node's reference to the old blob.
  // The cached parse must not notice: its entry still holds that blob.
  s.vfs.write_file("/lib64/libmpi.so.0",
                   elf::build_image(lib_spec("libmpi.so.2", {"libc.so.6"})));

  EXPECT_EQ(*before->soname(), "libmpi.so.0");
  ASSERT_EQ(before->needed().size(), 2u);
  EXPECT_EQ(before->needed()[0], "libc.so.6");
  EXPECT_EQ(before->needed()[1], "libm.so.6");
  ASSERT_EQ(before->comments().size(), 2u);
  EXPECT_EQ(before->comments()[0], "GCC: (GNU) 4.1.2");

  // The rewritten file holds a new blob and gets its own entry; the old
  // pointer keeps describing the old content.
  const elf::ElfFile* after = cached_parse(cache, s, "/lib64/libmpi.so.0");
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(*after->soname(), "libmpi.so.2");
  EXPECT_EQ(*before->soname(), "libmpi.so.0");
}

TEST(ResolverArena, ViewsSurviveRemovalOfTheFile) {
  site::Site s = make_host();
  ResolverCache cache;
  const elf::ElfFile* parsed =
      cached_parse(cache, s, "/lib64/libmpi.so.0");
  ASSERT_NE(parsed, nullptr);

  ASSERT_TRUE(s.vfs.remove("/lib64/libmpi.so.0"));
  EXPECT_EQ(s.vfs.read("/lib64/libmpi.so.0"), nullptr);

  EXPECT_EQ(*parsed->soname(), "libmpi.so.0");
  EXPECT_EQ(parsed->needed().size(), 2u);
  EXPECT_EQ(parsed->dynamic_symbols().size(), 0u);
}

TEST(ResolverArena, ViewsSurviveHeavyUnrelatedChurn) {
  site::Site s = make_host();
  ResolverCache cache;
  const elf::ElfFile* parsed =
      cached_parse(cache, s, "/lib64/libmpi.so.0");
  ASSERT_NE(parsed, nullptr);
  const std::string_view soname_before = *parsed->soname();

  // Hundreds of writes, rewrites, reads, and removals of *other* paths:
  // enough to reallocate every internal VFS table several times over and
  // to populate many new cache entries in the same shards.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      const std::string path =
          "/tmp/churn_" + std::to_string(round) + "_" + std::to_string(i);
      s.vfs.write_file(path, elf::build_image(lib_spec(
                                 "libchurn" + std::to_string(i) + ".so",
                                 {"libc.so.6"})));
      cached_parse(cache, s, path);
      if (i % 2 == 0) s.vfs.remove(path);
    }
  }

  // Both the view captured before the churn and freshly read ones agree.
  EXPECT_EQ(soname_before, "libmpi.so.0");
  EXPECT_EQ(*parsed->soname(), "libmpi.so.0");
  ASSERT_EQ(parsed->needed().size(), 2u);
  EXPECT_EQ(parsed->needed()[1], "libm.so.6");
}

TEST(ResolverArena, FailedParseIsMemoizedWithoutRetainingBytes) {
  site::Site s = make_host();
  ResolverCache cache;
  s.vfs.write_file("/tmp/notelf", std::string_view("#!/bin/sh\necho hi\n"));
  std::weak_ptr<const support::Bytes> bytes = s.vfs.read_blob("/tmp/notelf");
  EXPECT_EQ(cached_parse(cache, s, "/tmp/notelf"), nullptr);
  // Memoized: the second call is a hit that still reports failure.
  const std::uint64_t misses = cache.parse_misses();
  EXPECT_EQ(cached_parse(cache, s, "/tmp/notelf"), nullptr);
  EXPECT_EQ(cache.parse_misses(), misses);
  EXPECT_GE(cache.parse_hits(), 1u);
  // The entry keeps only the blob's identity: removing the file frees the
  // bytes, and equal bytes written afterwards are a new blob, parsed anew.
  ASSERT_TRUE(s.vfs.remove("/tmp/notelf"));
  EXPECT_TRUE(bytes.expired());
  s.vfs.write_file("/tmp/notelf", std::string_view("#!/bin/sh\necho hi\n"));
  EXPECT_EQ(cached_parse(cache, s, "/tmp/notelf"), nullptr);
  EXPECT_EQ(cache.parse_misses(), misses + 1);
}

}  // namespace
}  // namespace feam::binutils
