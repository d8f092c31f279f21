// Serializes an ElfSpec into a structurally valid ELF image.
//
// The layout is the one a simple static linker would produce:
//
//   ELF header
//   program header table        (PT_LOAD, PT_DYNAMIC)
//   .dynstr                     (all dynamic strings)
//   .dynsym                     (null + undefined + defined symbols)
//   .gnu.version                (one Elf_Half per dynsym entry)
//   .gnu.version_r              (verneed, grouped by library file)
//   .gnu.version_d              (verdef: base + named definitions)
//   .dynamic                    (NEEDED/SONAME/RPATH/STRTAB/... , NULL)
//   .comment                    (NUL-joined toolchain strings)
//   .note.feam.abi              (simulation ABI note, see spec.hpp)
//   .text                       (deterministic filler payload)
//   .shstrtab
//   section header table
//
// Virtual addresses equal file offsets (single RWX LOAD segment at 0),
// which keeps the parser honest: it must translate DT_* vaddrs through the
// program headers like a real loader rather than assume section offsets.
#pragma once

#include "elf/spec.hpp"
#include "support/byte_io.hpp"

namespace feam::elf {

// Builds the image; never fails for a well-formed spec (asserts on
// internal layout violations in debug builds). The image's capacity equals
// its size, so interning it pins no spare bytes.
support::Bytes build_image(const ElfSpec& spec);

}  // namespace feam::elf
