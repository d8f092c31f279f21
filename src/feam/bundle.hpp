// The source-phase bundle (paper Sections IV, V): descriptions and copies
// of every shared library an application is linked against (except the C
// library), plus MPI "hello world" binaries compiled in the guaranteed
// execution environment with the application's own MPI stack. The bundle
// is what a user copies to each target site to enable FEAM's resolution
// model and extended compatibility tests.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "feam/description.hpp"
#include "feam/edc.hpp"
#include "support/blob.hpp"
#include "support/json.hpp"
#include "toolchain/compiler.hpp"

namespace feam {

// Payloads are the files' own blobs, shared with the VFS they were
// gathered from and with every site they are installed at.
struct LibraryCopy {
  std::string name;         // NEEDED name / soname ("libmpi.so.0")
  std::string origin_path;  // where it lived in the guaranteed environment
  support::Blob content;
  BinaryDescription description;
};

struct HelloWorldCopy {
  toolchain::Language language = toolchain::Language::kC;
  std::string name;  // "hello_mpi_c"
  support::Blob content;
};

class Bundle {
 public:
  BinaryDescription application;
  EnvironmentDescription source_environment;
  std::vector<LibraryCopy> libraries;
  std::vector<HelloWorldCopy> hello_worlds;

  const LibraryCopy* find_library(std::string_view name) const;

  // Total payload size — the paper reports ~45M for a bundle covering all
  // test binaries at a site (Section VI.C). Logical bytes: a payload shared
  // with other holders still counts in full.
  std::size_t total_bytes() const;

  // Self-describing manifest (descriptions and sizes; contents travel as
  // separate files, as in the original tool's tarball).
  support::Json manifest() const;
};

}  // namespace feam
