#include "binutils/ldd.hpp"

#include <cstdio>

#include "binutils/resolver_cache.hpp"
#include "elf/file.hpp"
#include "obs/provenance.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace feam::binutils {

namespace {

support::Result<std::string> ldd_impl(const site::Site& host,
                                      std::string_view path, bool verbose,
                                      ResolverCache* cache) {
  using R = support::Result<std::string>;
  if (!host.ldd_available) {
    return R::failure("bash: ldd: command not found");
  }
  const support::Bytes* data = host.vfs.read(path);
  if (data == nullptr) {
    return R::failure("ldd: " + std::string(path) +
                      ": No such file or directory");
  }
  const auto parsed = elf::ElfFile::parse(*data);
  if (!parsed.ok()) {
    return R::failure("\tnot a dynamic executable");
  }
  // Real ldd executes the binary's interpreter; a foreign-ISA binary is not
  // recognized as a dynamic executable at all.
  if (!elf::isa_executable_on(parsed.value().isa(), host.isa) ||
      !parsed.value().is_dynamic()) {
    return R::failure("\tnot a dynamic executable");
  }

  const Resolution res = resolve_libraries(host, path, {}, cache);
  std::string out;
  std::uint64_t fake_base = 0x2aaaaaaab000ULL;
  for (const auto& lib : res.libs) {
    out += "\t" + lib.name + " => ";
    if (lib.path) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " (0x%012llx)",
                    static_cast<unsigned long long>(fake_base));
      fake_base += 0x155000;
      out += *lib.path + buf;
    } else {
      out += "not found";
    }
    out += "\n";
  }

  if (verbose) {
    out += "\n\tVersion information:\n";
    out += "\t" + std::string(path) + ":\n";
    for (const auto& need : parsed.value().version_references()) {
      const auto provider = res.path_of(need.file);
      for (const auto& version : need.versions) {
        out += "\t\t";
        out += need.file;
        out += " (";
        out += version;
        out += ") => ";
        out += provider.value_or("not found");
        out += "\n";
      }
    }
  }
  return out;
}

}  // namespace

support::Result<std::string> ldd(const site::Site& host, std::string_view path,
                                 bool verbose, ResolverCache* cache) {
  const auto run = [&] { return ldd_impl(host, path, verbose, cache); };
  support::Result<std::string> result =
      cache != nullptr ? cache->ldd_text(host, path, verbose, run) : run();
  // Provenance over the transcript itself: content-stamped, so a memoized
  // transcript and a fresh one for identical state record identically.
  if (obs::provenance_active()) {
    const std::string_view text =
        result.ok() ? result.value() : result.error();
    obs::record_evidence(
        {"resolver", "ldd", host.name, std::string(path),
         result.ok() ? std::to_string(parse_ldd_output(result.value()).size()) +
                           " entries"
                     : "failed: " + result.error(),
         support::fnv1a(text)});
  }
  return result;
}

std::vector<LddEntry> parse_ldd_output(std::string_view text) {
  std::vector<LddEntry> out;
  for (const auto& line : support::split(text, '\n')) {
    const auto stripped = support::trim(line);
    const auto arrow = stripped.find(" => ");
    if (arrow == std::string_view::npos) continue;
    // Skip the "Version information" block entries, which are indented with
    // a library-name prefix containing a parenthesized version.
    if (stripped.find('(') != std::string_view::npos &&
        stripped.find(") => ") != std::string_view::npos) {
      continue;
    }
    LddEntry entry;
    entry.name = std::string(support::trim(stripped.substr(0, arrow)));
    auto rest = support::trim(stripped.substr(arrow + 4));
    if (rest == "not found") {
      entry.path = std::nullopt;
    } else {
      // Strip the "(0x...)" load address.
      const auto paren = rest.rfind(" (0x");
      if (paren != std::string_view::npos) rest = support::trim(rest.substr(0, paren));
      entry.path = std::string(rest);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace feam::binutils
