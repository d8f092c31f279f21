// Bounds-checked parser for the ELF images this repository produces — and,
// structurally, for any gABI-conforming image that sticks to the features
// we model. This is the substrate under the binutils reimplementations
// (objdump/readelf/ldd): those tools *render text* from an ElfFile exactly
// the way the real tools render it from a file, and FEAM consumes the text.
//
// Parsing philosophy: never trust an offset. Every read goes through
// ByteReader's bounds checks; a malformed or truncated image yields a
// Result error, never UB. Dynamic-section virtual addresses are translated
// through the program headers like a real loader would (the builder's
// vaddr==offset convention is *not* assumed).
//
// Allocation model: a parse is ZERO-COPY. Every string the accessors
// expose — needed sonames, rpath entries, version records, comments,
// symbol names — is a std::string_view into the caller's byte buffer, so
// parsing a binary with thousands of dynamic symbols allocates a handful
// of vectors, not thousands of strings. The flip side is a borrow: an
// ElfFile is valid exactly as long as the Bytes passed to parse() stay
// alive and unmodified. Transient users (objdump/readelf/ldd render text
// from a VFS node's bytes under the site lease) satisfy this trivially;
// long-lived holders must keep the bytes' blob alive alongside the parse
// (see ResolverCache::parsed_elf).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "elf/spec.hpp"
#include "support/byte_io.hpp"
#include "support/result.hpp"

namespace feam::elf {

struct DynSymbol {
  std::string_view name;
  std::string_view version;  // from .gnu.version + verneed/verdef; empty if none
  bool defined = false;
};

// View-typed mirror of ElfSpec::VersionNeed: one required provider file
// and the version names pulled from it, all borrowed from the image.
struct VersionNeedView {
  std::string_view file;
  std::vector<std::string_view> versions;
};

class ElfFile {
 public:
  // Zero-copy parse: the returned ElfFile borrows `data` (see the
  // allocation-model note above).
  static support::Result<ElfFile> parse(const support::Bytes& data);
  // A temporary dies at the end of the call's full expression and would
  // leave every view dangling.
  static support::Result<ElfFile> parse(support::Bytes&&) = delete;

  // --- file format description (what `objdump -p` / `file` report)
  Isa isa() const { return isa_; }
  int bits() const { return isa_bits(isa_); }
  support::Endian endian() const { return isa_endian(isa_); }
  FileKind kind() const { return kind_; }
  bool is_dynamic() const { return has_dynamic_; }

  // --- dynamic section
  const std::vector<std::string_view>& needed() const { return needed_; }
  const std::optional<std::string_view>& soname() const { return soname_; }
  const std::vector<std::string_view>& rpath() const { return rpath_; }

  // --- GNU symbol versioning
  const std::vector<VersionNeedView>& version_references() const {
    return version_refs_;
  }
  // Named definitions only (the base definition that repeats the soname is
  // excluded, matching how objdump consumers read the section).
  const std::vector<std::string_view>& version_definitions() const {
    return version_defs_;
  }

  // --- sections
  const std::vector<std::string_view>& comments() const { return comments_; }
  const std::optional<AbiNote>& abi_note() const { return abi_note_; }
  const std::vector<DynSymbol>& dynamic_symbols() const { return symbols_; }

  std::size_t file_size() const { return file_size_; }

 private:
  ElfFile() = default;

  Isa isa_ = Isa::kX86_64;
  FileKind kind_ = FileKind::kExecutable;
  bool has_dynamic_ = false;
  std::vector<std::string_view> needed_;
  std::optional<std::string_view> soname_;
  std::vector<std::string_view> rpath_;
  std::vector<VersionNeedView> version_refs_;
  std::vector<std::string_view> version_defs_;
  std::vector<std::string_view> comments_;
  std::optional<AbiNote> abi_note_;
  std::vector<DynSymbol> symbols_;
  std::size_t file_size_ = 0;
};

// Quick check used by tools that must behave differently on non-ELF input
// (e.g. shell scripts): true iff the magic bytes are present.
bool looks_like_elf(const support::Bytes& data);

}  // namespace feam::elf
