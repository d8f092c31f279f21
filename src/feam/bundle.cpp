#include "feam/bundle.hpp"

namespace feam {

const LibraryCopy* Bundle::find_library(std::string_view name) const {
  for (const auto& lib : libraries) {
    if (lib.name == name) return &lib;
  }
  return nullptr;
}

std::size_t Bundle::total_bytes() const {
  std::size_t total = 0;
  for (const auto& lib : libraries) total += lib.content->size();
  for (const auto& hw : hello_worlds) total += hw.content->size();
  return total;
}

support::Json Bundle::manifest() const {
  support::Json j;
  j.set("application", application.to_json());
  support::Json::Array libs;
  for (const auto& lib : libraries) {
    support::Json entry;
    entry.set("name", lib.name);
    entry.set("origin_path", lib.origin_path);
    entry.set("bytes", lib.content->size());
    entry.set("description", lib.description.to_json());
    libs.push_back(std::move(entry));
  }
  j.set("libraries", support::Json(std::move(libs)));
  support::Json::Array hellos;
  for (const auto& hw : hello_worlds) {
    support::Json entry;
    entry.set("name", hw.name);
    entry.set("language", toolchain::language_name(hw.language));
    entry.set("bytes", hw.content->size());
    hellos.push_back(std::move(entry));
  }
  j.set("hello_worlds", support::Json(std::move(hellos)));
  j.set("total_bytes", total_bytes());
  return j;
}

}  // namespace feam
