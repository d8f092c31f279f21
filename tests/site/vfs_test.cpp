#include "site/vfs.hpp"

#include <gtest/gtest.h>

namespace feam::site {
namespace {

TEST(VfsPaths, BasenameDirname) {
  EXPECT_EQ(Vfs::basename("/usr/lib64/libc.so.6"), "libc.so.6");
  EXPECT_EQ(Vfs::basename("plain"), "plain");
  EXPECT_EQ(Vfs::dirname("/usr/lib64/libc.so.6"), "/usr/lib64");
  EXPECT_EQ(Vfs::dirname("/top"), "/");
  EXPECT_EQ(Vfs::join("/usr/lib", "libm.so"), "/usr/lib/libm.so");
  EXPECT_EQ(Vfs::join("/", "etc"), "/etc");
}

TEST(Vfs, WriteAndRead) {
  Vfs vfs;
  ASSERT_TRUE(vfs.write_file("/a/b/c.txt", "hello"));
  ASSERT_TRUE(vfs.is_file("/a/b/c.txt"));
  ASSERT_TRUE(vfs.is_dir("/a/b"));
  ASSERT_TRUE(vfs.is_dir("/a"));
  const auto* content = vfs.read("/a/b/c.txt");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(std::string(content->begin(), content->end()), "hello");
  EXPECT_EQ(vfs.read("/a/b/missing"), nullptr);
  EXPECT_EQ(vfs.read("/a/b"), nullptr);  // directory, not a file
}

TEST(Vfs, OverwriteReplacesContent) {
  Vfs vfs;
  vfs.write_file("/f", "one");
  vfs.write_file("/f", "two");
  const auto* content = vfs.read("/f");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(std::string(content->begin(), content->end()), "two");
}

TEST(Vfs, MkdirsThroughFileFails) {
  Vfs vfs;
  vfs.write_file("/a/file", "x");
  EXPECT_FALSE(vfs.write_file("/a/file/sub", "y"));
  EXPECT_FALSE(vfs.mkdirs("/a/file/sub"));
}

TEST(Vfs, SymlinkChainsResolve) {
  // The libmpi.so -> libmpi.so.0 -> libmpi.so.0.0.2 convention.
  Vfs vfs;
  vfs.write_file("/opt/mpi/lib/libmpi.so.0.0.2", "elf");
  vfs.symlink("/opt/mpi/lib/libmpi.so.0", "libmpi.so.0.0.2");
  vfs.symlink("/opt/mpi/lib/libmpi.so", "libmpi.so.0");

  EXPECT_TRUE(vfs.is_file("/opt/mpi/lib/libmpi.so"));
  EXPECT_TRUE(vfs.is_symlink("/opt/mpi/lib/libmpi.so"));
  EXPECT_FALSE(vfs.is_symlink("/opt/mpi/lib/libmpi.so.0.0.2"));
  EXPECT_EQ(vfs.resolve("/opt/mpi/lib/libmpi.so"),
            "/opt/mpi/lib/libmpi.so.0.0.2");
  ASSERT_NE(vfs.read("/opt/mpi/lib/libmpi.so.0"), nullptr);
}

TEST(Vfs, AbsoluteSymlinkTargets) {
  Vfs vfs;
  vfs.write_file("/real/file", "x");
  vfs.symlink("/alias/link", "/real/file");
  EXPECT_EQ(vfs.resolve("/alias/link"), "/real/file");
  EXPECT_NE(vfs.read("/alias/link"), nullptr);
}

TEST(Vfs, DanglingSymlink) {
  Vfs vfs;
  vfs.symlink("/lib/libgone.so.1", "libgone.so.1.0.0");
  EXPECT_TRUE(vfs.is_symlink("/lib/libgone.so.1"));
  EXPECT_FALSE(vfs.exists("/lib/libgone.so.1"));  // follows to nothing
  EXPECT_EQ(vfs.read("/lib/libgone.so.1"), nullptr);
  EXPECT_FALSE(vfs.resolve("/lib/libgone.so.1").has_value());
}

TEST(Vfs, SymlinkLoopIsDetected) {
  Vfs vfs;
  vfs.symlink("/a/x", "y");
  vfs.symlink("/a/y", "x");
  EXPECT_FALSE(vfs.exists("/a/x"));
  EXPECT_FALSE(vfs.resolve("/a/x").has_value());
}

TEST(Vfs, SymlinkedDirectoryTraversal) {
  Vfs vfs;
  vfs.write_file("/opt/pkg-1.4/lib/libx.so", "x");
  vfs.symlink("/opt/pkg", "pkg-1.4");
  EXPECT_TRUE(vfs.is_file("/opt/pkg/lib/libx.so"));
}

TEST(Vfs, RemoveFileAndTree) {
  Vfs vfs;
  vfs.write_file("/d/one", "1");
  vfs.write_file("/d/sub/two", "2");
  EXPECT_TRUE(vfs.remove("/d/one"));
  EXPECT_FALSE(vfs.exists("/d/one"));
  EXPECT_FALSE(vfs.remove("/d/one"));  // already gone
  EXPECT_TRUE(vfs.remove("/d"));       // recursive
  EXPECT_FALSE(vfs.exists("/d/sub/two"));
}

TEST(Vfs, ListSorted) {
  Vfs vfs;
  vfs.write_file("/dir/zeta", "");
  vfs.write_file("/dir/alpha", "");
  vfs.mkdirs("/dir/middle");
  EXPECT_EQ(vfs.list("/dir"),
            (std::vector<std::string>{"alpha", "middle", "zeta"}));
  EXPECT_TRUE(vfs.list("/nonexistent").empty());
}

TEST(Vfs, FindByPredicate) {
  Vfs vfs;
  vfs.write_file("/usr/lib/libm.so.6", "");
  vfs.write_file("/usr/lib/sub/libmpi.so.0", "");
  vfs.write_file("/usr/share/doc", "");
  // ".so" filter keeps the /usr/lib directory itself out of the hits.
  const auto hits = vfs.find("/usr", [](std::string_view name) {
    return name.substr(0, 3) == "lib" &&
           name.find(".so") != std::string_view::npos;
  });
  EXPECT_EQ(hits, (std::vector<std::string>{"/usr/lib/libm.so.6",
                                            "/usr/lib/sub/libmpi.so.0"}));
}

TEST(Vfs, FindDoesNotDescendSymlinkedDirs) {
  Vfs vfs;
  vfs.write_file("/real/liba.so", "");
  vfs.symlink("/scan/link", "/real");
  const auto hits =
      vfs.find("/scan", [](std::string_view name) { return name == "liba.so"; });
  EXPECT_TRUE(hits.empty());
}

TEST(Vfs, LocateSubstring) {
  Vfs vfs;
  vfs.write_file("/opt/openmpi-1.4/lib/libmpi.so.0", "");
  vfs.write_file("/usr/lib64/libmpich.so.1.2", "");
  const auto hits = vfs.locate("libmpi");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], "/opt/openmpi-1.4/lib/libmpi.so.0");
  EXPECT_EQ(hits[1], "/usr/lib64/libmpich.so.1.2");
}

}  // namespace
}  // namespace feam::site
