#include "site/environment.hpp"

#include <cassert>
#include <memory>
#include <utility>

#include "support/strings.hpp"

namespace feam::site {

namespace {

// Per-thread stack of open sessions, across all Environment instances
// (one worker rarely has more than two open at once, so a linear scan is
// cheaper than any map). Entries are owned here; end_session pops its own
// instance's innermost entry.
struct SessionEntry {
  const Environment* env;
  std::unique_ptr<Environment::Shadow> shadow;
};
thread_local std::vector<SessionEntry> t_sessions;

}  // namespace

Environment::Shadow* Environment::shadow() const {
  for (auto it = t_sessions.rbegin(); it != t_sessions.rend(); ++it) {
    if (it->env == this) return it->shadow.get();
  }
  return nullptr;
}

const std::map<std::string, std::string, std::less<>>& Environment::visible()
    const {
  const Shadow* s = shadow();
  return s != nullptr ? s->vars : vars_;
}

void Environment::begin_session() const {
  auto fresh = std::make_unique<Shadow>();
  fresh->vars = visible();  // copy-on-begin: nested sessions stack
  t_sessions.push_back({this, std::move(fresh)});
}

void Environment::end_session() const {
  for (auto it = t_sessions.rbegin(); it != t_sessions.rend(); ++it) {
    if (it->env == this) {
      t_sessions.erase(std::next(it).base());
      return;
    }
  }
  assert(false && "end_session without a matching begin_session");
}

std::uint64_t Environment::fingerprint() const {
  // FNV-1a over "name=value\n" records; the map iterates in sorted order,
  // so the hash is a pure function of the visible content.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view text) {
    for (const char c : text) {
      h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
    }
  };
  for (const auto& [name, value] : visible()) {
    mix(name);
    mix("=");
    mix(value);
    mix("\n");
  }
  return h;
}

void Environment::set(std::string name, std::string value) {
  Shadow* s = shadow();
  (s != nullptr ? s->vars : vars_)
      .insert_or_assign(std::move(name), std::move(value));
}

void Environment::unset(std::string_view name) {
  Shadow* s = shadow();
  auto& vars = s != nullptr ? s->vars : vars_;
  const auto it = vars.find(name);
  if (it != vars.end()) vars.erase(it);
}

std::optional<std::string> Environment::get(std::string_view name) const {
  const auto& vars = visible();
  const auto it = vars.find(name);
  if (it == vars.end()) return std::nullopt;
  return it->second;
}

bool Environment::has(std::string_view name) const {
  const auto& vars = visible();
  return vars.find(name) != vars.end();
}

std::vector<std::string> Environment::get_list(std::string_view name) const {
  std::vector<std::string> out;
  const auto value = get(name);
  if (!value) return out;
  for (auto& part : support::split(*value, ':')) {
    if (!part.empty()) out.push_back(std::move(part));
  }
  return out;
}

void Environment::prepend_to_list(std::string_view name, std::string_view entry) {
  const auto current = get(name);
  std::string value(entry);
  if (current && !current->empty()) value += ":" + *current;
  set(std::string(name), std::move(value));
}

void Environment::append_to_list(std::string_view name, std::string_view entry) {
  const auto current = get(name);
  std::string value = current && !current->empty() ? *current + ":" : "";
  value += entry;
  set(std::string(name), std::move(value));
}

}  // namespace feam::site
