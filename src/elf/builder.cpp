#include "elf/builder.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "elf/constants.hpp"
#include "elf/hash.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace feam::elf {

namespace {

using support::ByteWriter;
using support::Bytes;
using support::Endian;

// Deduplicating string table builder (offset 0 is the empty string, as the
// gABI requires).
class StringTable {
 public:
  StringTable() { data_.push_back('\0'); }

  std::uint32_t add(const std::string& s) {
    if (s.empty()) return 0;
    const auto it = offsets_.find(s);
    if (it != offsets_.end()) return it->second;
    const auto off = static_cast<std::uint32_t>(data_.size());
    data_.insert(data_.end(), s.begin(), s.end());
    data_.push_back('\0');
    offsets_.emplace(s, off);
    return off;
  }

  const std::vector<char>& data() const { return data_; }
  std::size_t size() const { return data_.size(); }

 private:
  std::vector<char> data_;
  std::map<std::string, std::uint32_t> offsets_;
};

struct SectionDesc {
  std::string name;
  std::uint32_t type = kShtProgbits;
  Bytes body;               // empty for .text, which is filled in the image
  std::uint64_t size = 0;   // sh_size
  std::uint32_t link = 0;   // section index for sh_link
  std::uint32_t info = 0;   // record count for verneed/verdef
  std::uint64_t entsize = 0;
  // Filled during layout:
  std::uint64_t offset = 0;
};

class Layout {
 public:
  explicit Layout(const ElfSpec& spec)
      : spec_(spec),
        is64_(isa_bits(spec.isa) == 64),
        endian_(isa_endian(spec.isa)) {}

  Bytes build();

 private:
  std::uint16_t machine() const {
    switch (spec_.isa) {
      case Isa::kX86: return kEm386;
      case Isa::kX86_64: return kEmX86_64;
      case Isa::kPpc: return kEmPpc;
      case Isa::kPpc64: return kEmPpc64;
      case Isa::kAarch64: return kEmAarch64;
    }
    return 0;
  }

  std::size_t ehsize() const { return is64_ ? 64 : 52; }
  std::size_t phentsize() const { return is64_ ? 56 : 32; }
  std::size_t shentsize() const { return is64_ ? 64 : 40; }
  std::size_t symentsize() const { return is64_ ? 24 : 16; }
  std::size_t dynentsize() const { return is64_ ? 16 : 8; }

  void collect_strings();
  void assign_version_indices();
  Bytes build_dynsym();
  Bytes build_versym();
  Bytes build_verneed();
  Bytes build_verdef();
  Bytes build_dynamic(std::uint64_t dynstr_vaddr, std::uint64_t dynstr_size,
                      std::uint64_t dynsym_vaddr, std::uint64_t verneed_vaddr,
                      std::uint64_t verdef_vaddr);
  Bytes build_comment() const;
  Bytes build_abi_note() const;

  void write_symbol(ByteWriter& w, std::uint32_t name_off, std::uint8_t info,
                    std::uint16_t shndx) const;
  void write_shdr(ByteWriter& w, std::uint32_t name_off, const SectionDesc& s,
                  std::uint64_t addr) const;

  const ElfSpec& spec_;
  bool is64_;
  Endian endian_;
  StringTable dynstr_;

  // Symbol order: [null, undefined..., defined...], with the matching
  // .gnu.version index for each.
  std::vector<std::uint16_t> versym_;
  // Version index for each named verdef (parallel to spec_.version_definitions).
  std::vector<std::uint16_t> verdef_index_;
  // Version index for each (file, version) vernaux entry.
  std::map<std::pair<std::string, std::string>, std::uint16_t> vernaux_index_;
  std::vector<ElfSpec::VersionNeed> needs_;
};

void Layout::collect_strings() {
  for (const auto& n : spec_.needed) dynstr_.add(n);
  if (!spec_.soname.empty()) dynstr_.add(spec_.soname);
  if (!spec_.rpath.empty()) dynstr_.add(support::join(spec_.rpath, ":"));
  for (const auto& s : spec_.undefined_symbols) {
    dynstr_.add(s.name);
    if (!s.version.empty()) {
      dynstr_.add(s.version);
      dynstr_.add(s.from_lib);
    }
  }
  for (const auto& s : spec_.defined_symbols) {
    dynstr_.add(s.name);
    if (!s.version.empty()) dynstr_.add(s.version);
  }
  for (const auto& v : spec_.version_definitions) dynstr_.add(v);
}

void Layout::assign_version_indices() {
  // Index 1 is the base definition; named definitions and vernaux entries
  // share the namespace starting at 2 (matching GNU ld's allocation).
  std::uint16_t next = 2;
  verdef_index_.clear();
  for (std::size_t i = 0; i < spec_.version_definitions.size(); ++i) {
    verdef_index_.push_back(next++);
  }
  needs_ = spec_.version_needs();
  for (const auto& need : needs_) {
    for (const auto& version : need.versions) {
      vernaux_index_[{need.file, version}] = next++;
    }
  }

  versym_.clear();
  versym_.push_back(kVerNdxLocal);  // the null symbol
  for (const auto& sym : spec_.undefined_symbols) {
    if (sym.version.empty()) {
      versym_.push_back(kVerNdxGlobal);
    } else {
      versym_.push_back(vernaux_index_.at({sym.from_lib, sym.version}));
    }
  }
  for (const auto& sym : spec_.defined_symbols) {
    if (sym.version.empty()) {
      versym_.push_back(kVerNdxGlobal);
    } else {
      const auto it = std::find(spec_.version_definitions.begin(),
                                spec_.version_definitions.end(), sym.version);
      assert(it != spec_.version_definitions.end() &&
             "defined symbol references unknown version definition");
      versym_.push_back(verdef_index_[static_cast<std::size_t>(
          it - spec_.version_definitions.begin())]);
    }
  }
}

void Layout::write_symbol(ByteWriter& w, std::uint32_t name_off,
                          std::uint8_t info, std::uint16_t shndx) const {
  if (is64_) {
    w.u32(name_off);
    w.u8(info);
    w.u8(0);  // st_other
    w.u16(shndx);
    w.u64(0);  // st_value
    w.u64(0);  // st_size
  } else {
    w.u32(name_off);
    w.u32(0);  // st_value
    w.u32(0);  // st_size
    w.u8(info);
    w.u8(0);
    w.u16(shndx);
  }
}

Bytes Layout::build_dynsym() {
  ByteWriter w(endian_);
  write_symbol(w, 0, 0, kShnUndef);  // null symbol
  const std::uint8_t info =
      static_cast<std::uint8_t>((kStbGlobal << 4) | kSttFunc);
  for (const auto& sym : spec_.undefined_symbols) {
    write_symbol(w, dynstr_.add(sym.name), info, kShnUndef);
  }
  for (const auto& sym : spec_.defined_symbols) {
    // shndx 1 stands for "defined in this object"; the precise section is
    // irrelevant to every consumer we model.
    write_symbol(w, dynstr_.add(sym.name), info, 1);
  }
  return w.take();
}

Bytes Layout::build_versym() {
  ByteWriter w(endian_);
  for (const std::uint16_t v : versym_) w.u16(v);
  return w.take();
}

Bytes Layout::build_verneed() {
  ByteWriter w(endian_);
  for (std::size_t i = 0; i < needs_.size(); ++i) {
    const auto& need = needs_[i];
    const std::size_t aux_bytes = need.versions.size() * 16;
    const bool last = i + 1 == needs_.size();
    w.u16(kVerNeedCurrent);                                   // vn_version
    w.u16(static_cast<std::uint16_t>(need.versions.size()));  // vn_cnt
    w.u32(dynstr_.add(need.file));                            // vn_file
    w.u32(16);                                                // vn_aux
    w.u32(last ? 0 : static_cast<std::uint32_t>(16 + aux_bytes));  // vn_next
    for (std::size_t j = 0; j < need.versions.size(); ++j) {
      const auto& version = need.versions[j];
      const bool last_aux = j + 1 == need.versions.size();
      w.u32(elf_hash(version));                               // vna_hash
      w.u16(0);                                               // vna_flags
      w.u16(vernaux_index_.at({need.file, version}));         // vna_other
      w.u32(dynstr_.add(version));                            // vna_name
      w.u32(last_aux ? 0 : 16);                               // vna_next
    }
  }
  return w.take();
}

Bytes Layout::build_verdef() {
  if (spec_.version_definitions.empty()) return {};
  ByteWriter w(endian_);
  // Base definition: names the object itself (soname), flags VER_FLG_BASE.
  const std::string base_name =
      !spec_.soname.empty() ? spec_.soname : std::string("a.out");
  const std::size_t total = spec_.version_definitions.size() + 1;
  for (std::size_t i = 0; i < total; ++i) {
    const bool is_base = i == 0;
    const std::string& name =
        is_base ? base_name : spec_.version_definitions[i - 1];
    const bool last = i + 1 == total;
    w.u16(kVerDefCurrent);                         // vd_version
    w.u16(is_base ? kVerFlgBase : std::uint16_t{0});  // vd_flags
    w.u16(is_base ? kVerNdxGlobal : verdef_index_[i - 1]);  // vd_ndx
    w.u16(1);                                      // vd_cnt (one aux: the name)
    w.u32(elf_hash(name));                         // vd_hash
    w.u32(20);                                     // vd_aux
    w.u32(last ? 0 : 28);                          // vd_next (20 + one 8-byte aux)
    w.u32(dynstr_.add(name));                      // vda_name
    w.u32(0);                                      // vda_next
  }
  return w.take();
}

Bytes Layout::build_dynamic(std::uint64_t dynstr_vaddr, std::uint64_t dynstr_size,
                            std::uint64_t dynsym_vaddr, std::uint64_t verneed_vaddr,
                            std::uint64_t verdef_vaddr) {
  ByteWriter w(endian_);
  const auto entry = [&](std::int64_t tag, std::uint64_t value) {
    if (is64_) {
      w.u64(static_cast<std::uint64_t>(tag));
      w.u64(value);
    } else {
      w.u32(static_cast<std::uint32_t>(tag));
      w.u32(static_cast<std::uint32_t>(value));
    }
  };
  for (const auto& needed : spec_.needed) entry(kDtNeeded, dynstr_.add(needed));
  if (!spec_.soname.empty()) entry(kDtSoname, dynstr_.add(spec_.soname));
  if (!spec_.rpath.empty()) {
    entry(kDtRpath, dynstr_.add(support::join(spec_.rpath, ":")));
  }
  entry(kDtStrtab, dynstr_vaddr);
  entry(kDtStrsz, dynstr_size);
  entry(kDtSymtab, dynsym_vaddr);
  if (!needs_.empty()) {
    entry(kDtVerneed, verneed_vaddr);
    entry(kDtVerneednum, needs_.size());
  }
  if (!spec_.version_definitions.empty()) {
    entry(kDtVerdef, verdef_vaddr);
    entry(kDtVerdefnum, spec_.version_definitions.size() + 1);
  }
  entry(kDtNull, 0);
  return w.take();
}

Bytes Layout::build_comment() const {
  ByteWriter w(endian_);
  for (const auto& comment : spec_.comments) w.cstr(comment);
  return w.take();
}

Bytes Layout::build_abi_note() const {
  if (!spec_.abi) return {};
  support::Json desc;
  desc.set("compiler_family", spec_.abi->compiler_family);
  desc.set("compiler_version", spec_.abi->compiler_version);
  if (!spec_.abi->mpi_impl.empty()) {
    desc.set("mpi_impl", spec_.abi->mpi_impl);
    desc.set("mpi_version", spec_.abi->mpi_version);
  }
  desc.set("abi_fingerprint", static_cast<std::int64_t>(spec_.abi->abi_fingerprint));
  desc.set("fp_model", static_cast<std::int64_t>(spec_.abi->fp_model));
  const std::string body = desc.dump();

  ByteWriter w(endian_);
  static constexpr std::string_view kName = "FEAM";
  w.u32(static_cast<std::uint32_t>(kName.size() + 1));  // namesz
  w.u32(static_cast<std::uint32_t>(body.size() + 1));   // descsz
  w.u32(1);                                             // type
  w.cstr(kName);
  while (w.size() % 4 != 0) w.u8(0);
  w.cstr(body);
  while (w.size() % 4 != 0) w.u8(0);
  return w.take();
}

// Synthesizes .text in place: successive SplitMix64 draws from `seed`,
// each stored as eight little-endian bytes whatever the host's byte order,
// and the low bytes of one more draw for a partial last word.
void fill_text(std::uint8_t* out, std::size_t size, std::uint64_t seed) {
  support::Rng rng(seed);
  const auto store = [&](std::size_t at, std::size_t count) {
    std::uint64_t word = rng.next_u64();
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    std::memcpy(out + at, &word, count);
  };
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) store(i, 8);
  if (i < size) store(i, size - i);
}

void Layout::write_shdr(ByteWriter& w, std::uint32_t name_off,
                        const SectionDesc& s, std::uint64_t addr) const {
  if (is64_) {
    w.u32(name_off);
    w.u32(s.type);
    w.u64(0);                     // sh_flags
    w.u64(addr);                  // sh_addr
    w.u64(s.offset);              // sh_offset
    w.u64(s.size);                // sh_size
    w.u32(s.link);
    w.u32(s.info);
    w.u64(1);                     // sh_addralign
    w.u64(s.entsize);
  } else {
    w.u32(name_off);
    w.u32(s.type);
    w.u32(0);
    w.u32(static_cast<std::uint32_t>(addr));
    w.u32(static_cast<std::uint32_t>(s.offset));
    w.u32(static_cast<std::uint32_t>(s.size));
    w.u32(s.link);
    w.u32(s.info);
    w.u32(1);
    w.u32(static_cast<std::uint32_t>(s.entsize));
  }
}

Bytes Layout::build() {
  const bool dynamic_link = !spec_.static_link;
  if (dynamic_link) {
    collect_strings();
    assign_version_indices();
  }

  // Build section bodies that do not depend on layout. The .dynamic body
  // depends on final vaddrs, so it is rebuilt after layout with identical
  // size (entry count is layout-independent).
  Bytes dynsym = dynamic_link ? build_dynsym() : Bytes{};
  Bytes versym = dynamic_link ? build_versym() : Bytes{};
  Bytes verneed = dynamic_link ? build_verneed() : Bytes{};
  Bytes verdef = dynamic_link ? build_verdef() : Bytes{};
  Bytes dynamic_placeholder = dynamic_link ? build_dynamic(0, 0, 0, 0, 0) : Bytes{};
  Bytes comment = build_comment();
  Bytes abi_note = build_abi_note();
  // collect_strings() + the builders above have interned every string, so
  // dynstr is final now.
  Bytes dynstr(dynstr_.data().begin(), dynstr_.data().end());

  // Section order; index 0 is the null section.
  std::vector<SectionDesc> sections;
  sections.push_back({"", kShtNull, {}, 0, 0, 0, 0, 0});
  const auto add = [&](std::string name, std::uint32_t type, Bytes body,
                       std::uint32_t link = 0, std::uint32_t info = 0,
                       std::uint64_t entsize = 0) -> std::size_t {
    const std::uint64_t size = body.size();
    sections.push_back({std::move(name), type, std::move(body), size, link,
                        info, entsize, 0});
    return sections.size() - 1;
  };

  std::size_t idx_dynstr = 0, idx_dynsym = 0, idx_dynamic = 0;
  std::size_t idx_versym = 0, idx_verneed = 0, idx_verdef = 0;
  if (dynamic_link) {
    idx_dynstr = add(".dynstr", kShtStrtab, std::move(dynstr));
    idx_dynsym = add(".dynsym", kShtDynsym, std::move(dynsym),
                     static_cast<std::uint32_t>(idx_dynstr), 1, symentsize());
    if (!versym_.empty()) {
      idx_versym = add(".gnu.version", kShtGnuVersym, std::move(versym),
                       static_cast<std::uint32_t>(idx_dynsym), 0, 2);
    }
    if (!needs_.empty()) {
      idx_verneed = add(".gnu.version_r", kShtGnuVerneed, std::move(verneed),
                        static_cast<std::uint32_t>(idx_dynstr),
                        static_cast<std::uint32_t>(needs_.size()));
    }
    if (!verdef.empty()) {
      idx_verdef = add(".gnu.version_d", kShtGnuVerdef, std::move(verdef),
                       static_cast<std::uint32_t>(idx_dynstr),
                       static_cast<std::uint32_t>(
                           spec_.version_definitions.size() + 1));
    }
    idx_dynamic = add(".dynamic", kShtDynamic, std::move(dynamic_placeholder),
                      static_cast<std::uint32_t>(idx_dynstr), 0, dynentsize());
  }
  if (!comment.empty()) add(".comment", kShtProgbits, std::move(comment));
  if (!abi_note.empty()) add(".note.feam.abi", kShtNote, std::move(abi_note));
  const std::size_t idx_text = add(".text", kShtProgbits, {});
  sections[idx_text].size = spec_.text_size;
  // .shstrtab body is produced below once all names are known.
  StringTable shstrtab;
  for (const auto& s : sections) shstrtab.add(s.name);
  const std::uint32_t shstrtab_name = shstrtab.add(".shstrtab");
  Bytes shstr_body(shstrtab.data().begin(), shstrtab.data().end());
  const auto idx_shstrtab = add(".shstrtab", kShtStrtab, std::move(shstr_body));
  (void)shstrtab_name;

  // ---- Layout: header, phdrs, section bodies, shdr table.
  const std::size_t phnum = dynamic_link ? 2 : 1;
  std::uint64_t cursor = ehsize() + phnum * phentsize();
  for (auto& s : sections) {
    if (s.type == kShtNull) continue;
    // Keep 4-byte alignment so u32 fields inside bodies stay aligned.
    cursor = (cursor + 3) & ~std::uint64_t{3};
    s.offset = cursor;
    cursor += s.size;
  }
  const std::uint64_t shoff = (cursor + 7) & ~std::uint64_t{7};
  const std::uint64_t file_end = shoff + sections.size() * shentsize();

  // Rebuild .dynamic with real vaddrs (vaddr == file offset here).
  if (dynamic_link) {
    const auto vaddr_of = [&](std::size_t idx) -> std::uint64_t {
      return idx == 0 ? 0 : sections[idx].offset;
    };
    Bytes dyn = build_dynamic(vaddr_of(idx_dynstr), sections[idx_dynstr].size,
                              vaddr_of(idx_dynsym), vaddr_of(idx_verneed),
                              vaddr_of(idx_verdef));
    assert(dyn.size() == sections[idx_dynamic].size);
    sections[idx_dynamic].body = std::move(dyn);
    (void)idx_versym;
  }

  // ---- Serialize into one allocation of exactly file_end bytes: an
  // interned blob keeps its vector's capacity, so slack would stay resident
  // for the life of the image.
  ByteWriter w(endian_);
  w.reserve(file_end);
  // e_ident
  for (const std::uint8_t m : kMagic) w.u8(m);
  w.u8(is64_ ? kClass64 : kClass32);
  w.u8(endian_ == Endian::kLittle ? kData2Lsb : kData2Msb);
  w.u8(kEvCurrent);
  w.u8(0);  // ELFOSABI_NONE (System V)
  w.zeros(kEiNident - 8);
  w.u16(spec_.kind == FileKind::kExecutable ? kEtExec : kEtDyn);
  w.u16(machine());
  w.u32(kEvCurrent);
  const auto addr = [&](std::uint64_t v) { is64_ ? w.u64(v) : w.u32(static_cast<std::uint32_t>(v)); };
  addr(sections.back().offset);  // e_entry: arbitrary nonzero (the .shstrtab offset)
  addr(ehsize());                // e_phoff
  addr(shoff);                   // e_shoff
  w.u32(0);                      // e_flags
  w.u16(static_cast<std::uint16_t>(ehsize()));
  w.u16(static_cast<std::uint16_t>(phentsize()));
  w.u16(static_cast<std::uint16_t>(phnum));
  w.u16(static_cast<std::uint16_t>(shentsize()));
  w.u16(static_cast<std::uint16_t>(sections.size()));
  w.u16(static_cast<std::uint16_t>(idx_shstrtab));
  assert(w.size() == ehsize());

  // Program headers. One LOAD covering the file, one DYNAMIC.
  const auto phdr = [&](std::uint32_t type, std::uint64_t offset,
                        std::uint64_t size) {
    if (is64_) {
      w.u32(type);
      w.u32(7);  // p_flags RWX
      w.u64(offset);
      w.u64(offset);  // p_vaddr == file offset
      w.u64(offset);  // p_paddr
      w.u64(size);
      w.u64(size);
      w.u64(0x1000);
    } else {
      w.u32(type);
      w.u32(static_cast<std::uint32_t>(offset));
      w.u32(static_cast<std::uint32_t>(offset));
      w.u32(static_cast<std::uint32_t>(offset));
      w.u32(static_cast<std::uint32_t>(size));
      w.u32(static_cast<std::uint32_t>(size));
      w.u32(7);
      w.u32(0x1000);
    }
  };
  phdr(kPtLoad, 0, file_end);
  if (dynamic_link) {
    phdr(kPtDynamic, sections[idx_dynamic].offset, sections[idx_dynamic].size);
  }

  // .text's body is empty, so the next pad_to zero-fills its range and
  // fill_text overwrites it below.
  for (const auto& s : sections) {
    if (s.type == kShtNull) continue;
    w.pad_to(s.offset);
    w.bytes(s.body);
  }

  w.pad_to(shoff);
  for (const auto& s : sections) {
    write_shdr(w, shstrtab.add(s.name), s, s.type == kShtNull ? 0 : s.offset);
  }
  assert(w.size() == file_end);
  Bytes image = w.take();
  fill_text(image.data() + sections[idx_text].offset, spec_.text_size,
            spec_.content_seed);
  return image;
}

}  // namespace

support::Bytes build_image(const ElfSpec& spec) { return Layout(spec).build(); }

}  // namespace feam::elf
