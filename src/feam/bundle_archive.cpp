#include "feam/bundle_archive.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace feam {

namespace {

using support::ByteReader;
using support::Bytes;
using support::ByteWriter;
using support::Endian;

constexpr std::string_view kMagic = "FEAMBNDL";
constexpr std::uint32_t kVersion = 1;

}  // namespace

support::Bytes pack_bundle(const Bundle& bundle) {
  obs::Span span("bundle.pack",
                 {{"libraries", std::to_string(bundle.libraries.size())},
                  {"hello_worlds",
                   std::to_string(bundle.hello_worlds.size())}});
  obs::ScopedTimer timer(obs::histogram("bundle.pack_ns"));

  // Manifest: the standard bundle manifest plus the environment facts the
  // target side may want to display.
  support::Json manifest = bundle.manifest();
  support::Json env;
  env.set("site", bundle.source_environment.site_name);
  env.set("isa", bundle.source_environment.isa);
  env.set("distro", bundle.source_environment.distro);
  if (bundle.source_environment.clib_version) {
    env.set("clib_version", bundle.source_environment.clib_version->str());
  }
  manifest.set("source_environment", env);
  const std::string manifest_text = manifest.dump();

  ByteWriter w(Endian::kLittle);
  w.bytes(kMagic);
  w.u32(kVersion);
  w.u32(static_cast<std::uint32_t>(manifest_text.size()));
  w.bytes(manifest_text);
  w.u32(static_cast<std::uint32_t>(bundle.libraries.size() +
                                   bundle.hello_worlds.size()));
  const auto entry = [&](const std::string& name, const Bytes& content) {
    w.u32(static_cast<std::uint32_t>(name.size()));
    w.bytes(name);
    w.u32(static_cast<std::uint32_t>(content.size()));
    w.bytes(content);
  };
  for (const auto& lib : bundle.libraries) entry(lib.name, *lib.content);
  for (const auto& hw : bundle.hello_worlds) entry(hw.name, *hw.content);
  support::Bytes archive = w.take();
  span.add_field("bytes", std::to_string(archive.size()));
  obs::counter("bundle.pack_bytes").add(archive.size());
  obs::emit(obs::Level::kDebug, "bundle.pack",
            "packed bundle: " + std::to_string(archive.size()) + " bytes",
            {{"bytes", std::to_string(archive.size())},
             {"libraries", std::to_string(bundle.libraries.size())}});
  return archive;
}

support::Result<Bundle> unpack_bundle(const support::Bytes& archive) {
  using R = support::Result<Bundle>;
  obs::Span span("bundle.unpack",
                 {{"bytes", std::to_string(archive.size())}});
  obs::ScopedTimer timer(obs::histogram("bundle.unpack_ns"));
  obs::counter("bundle.unpack_bytes").add(archive.size());
  ByteReader r(archive, Endian::kLittle);

  // Magic + version.
  if (archive.size() < kMagic.size() + 8) return R::failure("archive truncated");
  for (std::size_t i = 0; i < kMagic.size(); ++i) {
    if (archive[i] != static_cast<std::uint8_t>(kMagic[i])) {
      return R::failure("not a FEAM bundle (bad magic)");
    }
  }
  std::size_t pos = kMagic.size();
  const auto version = r.u32(pos);
  pos += 4;
  if (!version || *version != kVersion) {
    return R::failure("unsupported bundle version");
  }

  const auto read_block = [&](std::size_t& cursor) -> std::optional<Bytes> {
    const auto len = r.u32(cursor);
    if (!len) return std::nullopt;
    cursor += 4;
    if (cursor + *len > archive.size()) return std::nullopt;
    Bytes out(archive.begin() + static_cast<std::ptrdiff_t>(cursor),
              archive.begin() + static_cast<std::ptrdiff_t>(cursor + *len));
    cursor += *len;
    return out;
  };

  const auto manifest_bytes = read_block(pos);
  if (!manifest_bytes) return R::failure("archive truncated in manifest");
  const auto manifest = support::Json::parse(
      std::string(manifest_bytes->begin(), manifest_bytes->end()));
  if (!manifest) return R::failure("bundle manifest is not valid JSON");

  Bundle bundle;
  auto app = BinaryDescription::from_json((*manifest)["application"]);
  if (!app) return R::failure("bundle manifest lacks an application description");
  bundle.application = std::move(*app);
  const auto& env = (*manifest)["source_environment"];
  bundle.source_environment.site_name = env.get_string("site");
  bundle.source_environment.isa = env.get_string("isa");
  bundle.source_environment.distro = env.get_string("distro");
  if (env.has("clib_version")) {
    bundle.source_environment.clib_version =
        support::Version::parse(env.get_string("clib_version"));
  }

  const auto count = r.u32(pos);
  if (!count) return R::failure("archive truncated at payload count");
  pos += 4;

  // Payload entries, matched against the manifest by position.
  const auto& manifest_libs = (*manifest)["libraries"].as_array();
  const auto& manifest_hellos = (*manifest)["hello_worlds"].as_array();
  if (*count != manifest_libs.size() + manifest_hellos.size()) {
    return R::failure("payload count disagrees with manifest");
  }
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto name_bytes = read_block(pos);
    if (!name_bytes) return R::failure("archive truncated in entry name");
    const std::string name(name_bytes->begin(), name_bytes->end());
    auto content = read_block(pos);
    if (!content) return R::failure("archive truncated in entry content");

    if (i < manifest_libs.size()) {
      const auto& meta = manifest_libs[i];
      if (meta.get_string("name") != name) {
        return R::failure("payload order disagrees with manifest");
      }
      auto desc = BinaryDescription::from_json(meta["description"]);
      if (!desc) return R::failure("library entry lacks a description");
      bundle.libraries.push_back({name, meta.get_string("origin_path"),
                                  support::intern(std::move(*content)),
                                  std::move(*desc)});
    } else {
      const auto& meta = manifest_hellos[i - manifest_libs.size()];
      if (meta.get_string("name") != name) {
        return R::failure("payload order disagrees with manifest");
      }
      HelloWorldCopy hw;
      hw.name = name;
      const std::string lang = meta.get_string("language");
      hw.language = lang == "Fortran" ? toolchain::Language::kFortran
                    : lang == "C++"   ? toolchain::Language::kCxx
                                      : toolchain::Language::kC;
      hw.content = support::intern(std::move(*content));
      bundle.hello_worlds.push_back(std::move(hw));
    }
  }
  if (pos != archive.size()) return R::failure("trailing bytes after payload");
  return bundle;
}

}  // namespace feam
