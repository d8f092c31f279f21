#include "obs/profile.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

#include "support/strings.hpp"
#include "support/table.hpp"

namespace feam::obs {
namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string fmt_us(std::uint64_t ns) { return fmt_u64(ns / 1000); }

// Deterministic order used everywhere: containers sort before containees
// (start ascending, end descending), exact-duplicate intervals by id. The
// adoption pass relies on this — an adopter always has a smaller sorted
// index than its adoptee, so adoption edges can never form a cycle.
bool span_before(const ProfileSpan& a, const ProfileSpan& b) {
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
  return a.id < b.id;
}

// Builder for the flame tree: children keyed by name while accumulating,
// flattened to sorted vectors at the end.
struct FlameBuilder {
  std::uint64_t self_ns = 0;
  std::uint64_t self_bytes = 0;
  std::map<std::string, std::unique_ptr<FlameBuilder>, std::less<>> children;

  FlameBuilder& child(const std::string& name) {
    auto it = children.find(name);
    if (it == children.end()) {
      it = children.emplace(name, std::make_unique<FlameBuilder>()).first;
    }
    return *it->second;
  }
};

FlameNode flatten_flame(const std::string& name, const FlameBuilder& b) {
  FlameNode node;
  node.name = name;
  node.self_ns = b.self_ns;
  node.total_ns = b.self_ns;
  node.self_bytes = b.self_bytes;
  node.total_bytes = b.self_bytes;
  node.children.reserve(b.children.size());
  for (const auto& [child_name, child] : b.children) {
    node.children.push_back(flatten_flame(child_name, *child));
    node.total_ns += node.children.back().total_ns;
    node.total_bytes += node.children.back().total_bytes;
  }
  return node;
}

void merge_flame(FlameNode& into, const FlameNode& from) {
  into.self_ns += from.self_ns;
  into.total_ns += from.total_ns;
  into.self_bytes += from.self_bytes;
  into.total_bytes += from.total_bytes;
  for (const auto& child : from.children) {
    auto it = std::lower_bound(
        into.children.begin(), into.children.end(), child,
        [](const FlameNode& a, const FlameNode& b) { return a.name < b.name; });
    if (it != into.children.end() && it->name == child.name) {
      merge_flame(*it, child);
    } else {
      into.children.insert(it, child);
    }
  }
}

void fold_stacks(const FlameNode& node, FlameWeight weight,
                 std::string& prefix, std::vector<std::string>& lines) {
  const std::size_t prefix_len = prefix.size();
  if (!prefix.empty()) prefix += ';';
  prefix += node.name;
  // Time weight keeps the historical form: emit whenever self time is
  // nonzero (sub-microsecond frames fold to "0"). Byte weight emits raw
  // byte counts for frames that allocated at all.
  if (weight == FlameWeight::kTime) {
    if (node.self_ns > 0) lines.push_back(prefix + " " + fmt_us(node.self_ns));
  } else if (node.self_bytes > 0) {
    lines.push_back(prefix + " " + fmt_u64(node.self_bytes));
  }
  for (const auto& child : node.children) {
    fold_stacks(child, weight, prefix, lines);
  }
  prefix.resize(prefix_len);
}


void xml_escape(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

int flame_depth(const FlameNode& node) {
  int deepest = 0;
  for (const auto& child : node.children) {
    deepest = std::max(deepest, flame_depth(child));
  }
  return deepest + 1;
}

// FNV-1a over the frame name; drives the deterministic color choice.
std::uint32_t name_hash(std::string_view name) {
  std::uint32_t h = 2166136261u;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

struct SvgLayout {
  std::string body;
  std::uint64_t root_total = 1;
  double width = 1200.0;
  double row_h = 17.0;
  double top = 28.0;
  FlameWeight weight = FlameWeight::kTime;

  std::uint64_t total_of(const FlameNode& node) const {
    return weight == FlameWeight::kTime ? node.total_ns : node.total_bytes;
  }

  void draw(const FlameNode& node, double x, int depth) {
    const double w =
        width * static_cast<double>(total_of(node)) / static_cast<double>(root_total);
    if (w < 0.1) return;
    const double y = top + depth * row_h;
    const std::uint32_t h = name_hash(node.name);
    // Warm flame palette: red-orange hues, varied per name but stable.
    const int r = 205 + static_cast<int>(h % 50);
    const int g = 70 + static_cast<int>((h >> 8) % 110);
    const int b = (h >> 16) % 40;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "<g><rect x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" "
                  "height=\"%.2f\" fill=\"rgb(%d,%d,%d)\" rx=\"1\"/>",
                  x, y, std::max(w - 0.5, 0.1), row_h - 1.0, r, g, b);
    body += buf;
    body += "<title>";
    xml_escape(body, node.name);
    if (weight == FlameWeight::kTime) {
      std::snprintf(buf, sizeof(buf), " (total %s us, self %s us)</title>",
                    fmt_us(node.total_ns).c_str(), fmt_us(node.self_ns).c_str());
    } else {
      std::snprintf(buf, sizeof(buf), " (total %s, self %s)</title>",
                    support::human_size(node.total_bytes).c_str(),
                    support::human_size(node.self_bytes).c_str());
    }
    body += buf;
    // ~7 px per glyph of 12px monospace; skip labels on slivers.
    const std::size_t fit = static_cast<std::size_t>(std::max(w - 6.0, 0.0) / 7.0);
    if (fit >= 2) {
      std::string label(node.name.substr(0, fit));
      if (label.size() < node.name.size() && label.size() > 2) {
        label.resize(label.size() - 2);
        label += "..";
      }
      std::snprintf(buf, sizeof(buf), "<text x=\"%.2f\" y=\"%.2f\">",
                    x + 3.0, y + row_h - 5.0);
      body += buf;
      xml_escape(body, label);
      body += "</text>";
    }
    body += "</g>";
    double child_x = x;
    for (const auto& child : node.children) {
      draw(child, child_x, depth + 1);
      child_x += width * static_cast<double>(total_of(child)) /
                 static_cast<double>(root_total);
    }
  }
};

}  // namespace

Profile build_profile(std::vector<ProfileSpan> spans) {
  Profile profile;
  profile.flame.name = "all";
  if (spans.empty()) return profile;

  std::sort(spans.begin(), spans.end(), span_before);
  const std::size_t n = spans.size();
  profile.span_count = n;

  std::unordered_map<std::uint64_t, std::size_t> index_by_id;
  index_by_id.reserve(n);
  for (std::size_t i = 0; i < n; ++i) index_by_id.emplace(spans[i].id, i);

  // Self time: duration minus direct explicit children. RAII nesting means
  // same-thread children are contained and disjoint, so the subtraction
  // never goes negative on collector traces; clamp anyway for foreign input.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> explicit_parent(n, kNone);
  std::vector<std::uint64_t> child_sum(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent_id == 0) continue;
    const auto it = index_by_id.find(spans[i].parent_id);
    if (it == index_by_id.end() || it->second == i) continue;
    explicit_parent[i] = it->second;
    child_sum[it->second] += spans[i].duration_ns();
  }
  std::vector<std::uint64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t dur = spans[i].duration_ns();
    self[i] = dur > child_sum[i] ? dur - child_sum[i] : 0;
  }

  // Adoption: a span with no recorded parent (a worker-thread root) is
  // attached to the innermost span that time-contains it — maximal start,
  // then minimal end, then latest in sort order. Only earlier-sorted spans
  // can contain it, so the effective tree is acyclic by construction.
  std::vector<std::size_t> effective_parent(explicit_parent);
  for (std::size_t i = 0; i < n; ++i) {
    if (effective_parent[i] != kNone) continue;
    std::size_t best = kNone;
    for (std::size_t j = 0; j < i; ++j) {
      if (spans[j].start_ns > spans[i].start_ns ||
          spans[j].end_ns < spans[i].end_ns) {
        continue;
      }
      if (best == kNone || spans[j].start_ns > spans[best].start_ns ||
          (spans[j].start_ns == spans[best].start_ns &&
           spans[j].end_ns <= spans[best].end_ns)) {
        best = j;
      }
    }
    effective_parent[i] = best;
  }

  // Per-name and per-thread aggregation.
  std::map<std::string, ProfileNameStat, std::less<>> by_name;
  std::map<int, ProfileThread> threads;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> thread_extent;
  std::uint64_t min_start = spans[0].start_ns;
  std::uint64_t max_end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ProfileSpan& s = spans[i];
    const std::uint64_t dur = s.duration_ns();
    auto& stat = by_name[s.name];
    if (stat.count == 0) {
      stat.name = s.name;
      stat.min_ns = dur;
    }
    ++stat.count;
    stat.total_ns += dur;
    stat.self_ns += self[i];
    stat.min_ns = std::min(stat.min_ns, dur);
    stat.max_ns = std::max(stat.max_ns, dur);
    stat.alloc_bytes += s.alloc_bytes;

    auto& thread = threads[s.tid];
    thread.tid = s.tid;
    ++thread.spans;
    thread.self_ns += self[i];
    if (explicit_parent[i] == kNone) thread.busy_ns += dur;
    auto [it, fresh] = thread_extent.emplace(
        s.tid, std::make_pair(s.start_ns, s.end_ns));
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
    min_start = std::min(min_start, s.start_ns);
    max_end = std::max(max_end, s.end_ns);
  }
  profile.wall_ns = max_end - min_start;
  for (auto& [tid, thread] : threads) {
    const auto& extent = thread_extent[tid];
    thread.extent_ns = extent.second - extent.first;
    profile.threads.push_back(thread);
  }
  profile.by_name.reserve(by_name.size());
  for (auto& [name, stat] : by_name) profile.by_name.push_back(stat);
  std::sort(profile.by_name.begin(), profile.by_name.end(),
            [](const ProfileNameStat& a, const ProfileNameStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });

  // Flame tree: one forward pass works because every effective parent has
  // a smaller sorted index than its child.
  FlameBuilder flame_root;
  std::vector<FlameBuilder*> flame_of(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    FlameBuilder& parent_node = effective_parent[i] == kNone
                                    ? flame_root
                                    : *flame_of[effective_parent[i]];
    FlameBuilder& node = parent_node.child(spans[i].name);
    node.self_ns += self[i];
    node.self_bytes += spans[i].alloc_bytes;
    flame_of[i] = &node;
  }
  profile.flame = flatten_flame("all", flame_root);

  // Critical path: effective children per span, then descend from the
  // orphan that finishes last, always into the child that finishes last —
  // the span each join/barrier was actually waiting on.
  std::vector<std::vector<std::size_t>> children(n);
  std::size_t path_head = kNone;
  const auto later = [&](std::size_t a, std::size_t b) {
    // True when a is a "later finisher" than b.
    if (spans[a].end_ns != spans[b].end_ns) {
      return spans[a].end_ns > spans[b].end_ns;
    }
    if (spans[a].duration_ns() != spans[b].duration_ns()) {
      return spans[a].duration_ns() > spans[b].duration_ns();
    }
    return spans[a].id < spans[b].id;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (effective_parent[i] != kNone) {
      children[effective_parent[i]].push_back(i);
    } else if (path_head == kNone || later(i, path_head)) {
      path_head = i;
    }
  }
  for (std::size_t step = path_head; step != kNone;) {
    profile.critical_path.push_back({spans[step].name, spans[step].tid,
                                     spans[step].start_ns - min_start,
                                     spans[step].duration_ns(), self[step]});
    std::size_t next = kNone;
    for (const std::size_t child : children[step]) {
      if (next == kNone || later(child, next)) next = child;
    }
    step = next;
  }
  return profile;
}

Profile build_profile(const std::vector<SpanRecord>& spans) {
  std::vector<ProfileSpan> input;
  input.reserve(spans.size());
  for (const auto& s : spans) {
    input.push_back({s.id, s.parent_id, s.name, s.start_ns, s.end_ns, s.tid,
                     s.alloc_bytes, s.alloc_count});
  }
  return build_profile(std::move(input));
}

void Profile::merge(const Profile& other) {
  wall_ns += other.wall_ns;
  span_count += other.span_count;

  std::map<std::string, ProfileNameStat, std::less<>> stats;
  for (auto& stat : by_name) stats.emplace(stat.name, std::move(stat));
  for (const auto& stat : other.by_name) {
    auto [it, fresh] = stats.emplace(stat.name, stat);
    if (fresh) continue;
    ProfileNameStat& mine = it->second;
    mine.count += stat.count;
    mine.total_ns += stat.total_ns;
    mine.self_ns += stat.self_ns;
    mine.min_ns = std::min(mine.min_ns, stat.min_ns);
    mine.max_ns = std::max(mine.max_ns, stat.max_ns);
    mine.alloc_bytes += stat.alloc_bytes;
  }
  by_name.clear();
  for (auto& [name, stat] : stats) by_name.push_back(std::move(stat));
  std::sort(by_name.begin(), by_name.end(),
            [](const ProfileNameStat& a, const ProfileNameStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });

  std::map<int, ProfileThread> merged_threads;
  for (const auto& thread : threads) merged_threads[thread.tid] = thread;
  for (const auto& thread : other.threads) {
    auto [it, fresh] = merged_threads.emplace(thread.tid, thread);
    if (fresh) continue;
    it->second.spans += thread.spans;
    it->second.busy_ns += thread.busy_ns;
    it->second.self_ns += thread.self_ns;
    it->second.extent_ns += thread.extent_ns;
  }
  threads.clear();
  for (auto& [tid, thread] : merged_threads) threads.push_back(thread);

  if (other.critical_path_ns() > critical_path_ns()) {
    critical_path = other.critical_path;
  }

  if (flame.name.empty()) flame.name = "all";
  FlameNode other_flame = other.flame;
  if (other_flame.name.empty()) other_flame.name = "all";
  merge_flame(flame, other_flame);
}

std::string Profile::render_table() const {
  std::string out = "profile: " + fmt_u64(span_count) + " spans, wall " +
                    fmt_us(wall_ns) + " us";
  if (!critical_path.empty()) {
    out += ", critical path " + fmt_us(critical_path_ns()) + " us (" +
           support::percent(static_cast<double>(critical_path_ns()),
                            static_cast<double>(wall_ns)) +
           " of wall)";
  }
  out += "\n\n";

  std::uint64_t total_self = 0;
  std::uint64_t total_alloc = 0;
  for (const auto& stat : by_name) {
    total_self += stat.self_ns;
    total_alloc += stat.alloc_bytes;
  }
  // The alloc column appears only when the trace carried allocation data,
  // so profiles recorded without tracking render exactly as before.
  std::vector<std::string> headers{"span",     "count",  "self us", "self %",
                                   "total us", "min us", "max us"};
  if (total_alloc > 0) headers.push_back("alloc");
  support::TextTable names(headers);
  for (const auto& stat : by_name) {
    std::vector<std::string> row{
        stat.name, fmt_u64(stat.count), fmt_us(stat.self_ns),
        support::percent(static_cast<double>(stat.self_ns),
                         static_cast<double>(total_self)),
        fmt_us(stat.total_ns), fmt_us(stat.min_ns), fmt_us(stat.max_ns)};
    if (total_alloc > 0) row.push_back(support::human_size(stat.alloc_bytes));
    names.add_row(row);
  }
  out += names.render();

  out += "\nthreads:\n";
  support::TextTable thread_table(
      {"tid", "spans", "busy us", "util %", "extent us"});
  for (const auto& thread : threads) {
    thread_table.add_row(
        {fmt_u64(static_cast<std::uint64_t>(thread.tid)),
         fmt_u64(thread.spans), fmt_us(thread.busy_ns),
         support::percent(static_cast<double>(thread.busy_ns),
                          static_cast<double>(wall_ns)),
         fmt_us(thread.extent_ns)});
  }
  out += thread_table.render();

  if (!critical_path.empty()) {
    out += "\ncritical path (longest chain of time-contained spans):\n";
    support::TextTable path(
        {"depth", "span", "tid", "start us", "dur us", "self us"});
    std::uint64_t depth = 0;
    for (const auto& step : critical_path) {
      path.add_row({fmt_u64(depth++), step.name,
                    fmt_u64(static_cast<std::uint64_t>(step.tid)),
                    fmt_us(step.start_ns), fmt_us(step.duration_ns),
                    fmt_us(step.self_ns)});
    }
    out += path.render();
  }
  return out;
}

std::string Profile::folded_stacks(FlameWeight weight) const {
  std::vector<std::string> lines;
  std::string prefix;
  for (const auto& child : flame.children) {
    fold_stacks(child, weight, prefix, lines);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

support::Json Profile::to_json() const {
  support::Json::Object object;
  object.emplace("wall_ns", support::Json(static_cast<double>(wall_ns)));
  object.emplace("span_count", support::Json(static_cast<double>(span_count)));
  support::Json::Array names;
  for (const auto& stat : by_name) {
    support::Json::Object entry;
    entry.emplace("name", support::Json(stat.name));
    entry.emplace("count", support::Json(static_cast<double>(stat.count)));
    entry.emplace("total_ns", support::Json(static_cast<double>(stat.total_ns)));
    entry.emplace("self_ns", support::Json(static_cast<double>(stat.self_ns)));
    entry.emplace("min_ns", support::Json(static_cast<double>(stat.min_ns)));
    entry.emplace("max_ns", support::Json(static_cast<double>(stat.max_ns)));
    // Additive: only present when the trace carried allocation data, so
    // pre-tracking records stay byte-identical.
    if (stat.alloc_bytes > 0) {
      entry.emplace("alloc_bytes",
                    support::Json(static_cast<double>(stat.alloc_bytes)));
    }
    names.push_back(support::Json(std::move(entry)));
  }
  object.emplace("by_name", support::Json(std::move(names)));
  support::Json::Array thread_entries;
  for (const auto& thread : threads) {
    support::Json::Object entry;
    entry.emplace("tid", support::Json(thread.tid));
    entry.emplace("spans", support::Json(static_cast<double>(thread.spans)));
    entry.emplace("busy_ns", support::Json(static_cast<double>(thread.busy_ns)));
    entry.emplace("self_ns", support::Json(static_cast<double>(thread.self_ns)));
    entry.emplace("extent_ns", support::Json(static_cast<double>(thread.extent_ns)));
    thread_entries.push_back(support::Json(std::move(entry)));
  }
  object.emplace("threads", support::Json(std::move(thread_entries)));
  support::Json::Array path;
  for (const auto& step : critical_path) {
    support::Json::Object entry;
    entry.emplace("name", support::Json(step.name));
    entry.emplace("tid", support::Json(step.tid));
    entry.emplace("start_ns", support::Json(static_cast<double>(step.start_ns)));
    entry.emplace("duration_ns", support::Json(static_cast<double>(step.duration_ns)));
    entry.emplace("self_ns", support::Json(static_cast<double>(step.self_ns)));
    path.push_back(support::Json(std::move(entry)));
  }
  object.emplace("critical_path", support::Json(std::move(path)));
  return support::Json(std::move(object));
}

std::optional<Profile> Profile::from_json(const support::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const auto wall_ns = j["wall_ns"].to_uint();
  const auto span_count = j["span_count"].to_uint();
  if (!wall_ns || !span_count || !j["by_name"].is_array() ||
      !j["threads"].is_array() || !j["critical_path"].is_array()) {
    return std::nullopt;
  }
  Profile profile;
  profile.flame.name = "all";
  profile.wall_ns = *wall_ns;
  profile.span_count = *span_count;
  for (const auto& entry : j["by_name"].as_array()) {
    if (!entry.is_object() || !entry["name"].is_string()) return std::nullopt;
    ProfileNameStat stat;
    stat.name = entry["name"].as_string();
    stat.count = entry.get_uint("count");
    stat.total_ns = entry.get_uint("total_ns");
    stat.self_ns = entry.get_uint("self_ns");
    stat.min_ns = entry.get_uint("min_ns");
    stat.max_ns = entry.get_uint("max_ns");
    stat.alloc_bytes = entry.get_uint("alloc_bytes");
    profile.by_name.push_back(std::move(stat));
  }
  for (const auto& entry : j["threads"].as_array()) {
    if (!entry.is_object()) return std::nullopt;
    ProfileThread thread;
    thread.tid = static_cast<int>(entry.get_int("tid"));
    thread.spans = entry.get_uint("spans");
    thread.busy_ns = entry.get_uint("busy_ns");
    thread.self_ns = entry.get_uint("self_ns");
    thread.extent_ns = entry.get_uint("extent_ns");
    profile.threads.push_back(thread);
  }
  for (const auto& entry : j["critical_path"].as_array()) {
    if (!entry.is_object() || !entry["name"].is_string()) return std::nullopt;
    CriticalPathStep step;
    step.name = entry["name"].as_string();
    step.tid = static_cast<int>(entry.get_int("tid"));
    step.start_ns = entry.get_uint("start_ns");
    step.duration_ns = entry.get_uint("duration_ns");
    step.self_ns = entry.get_uint("self_ns");
    profile.critical_path.push_back(std::move(step));
  }
  return profile;
}

std::string render_flamegraph_svg(const FlameNode& root,
                                  std::string_view title,
                                  FlameWeight weight) {
  SvgLayout layout;
  layout.weight = weight;
  layout.root_total = std::max<std::uint64_t>(
      weight == FlameWeight::kTime ? root.total_ns : root.total_bytes, 1);
  const int depth = flame_depth(root);
  const double height = layout.top + depth * layout.row_h + 8.0;

  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
                "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">",
                layout.width, height, layout.width, height);
  out += buf;
  out +=
      "<style>text{font:12px ui-monospace,monospace;fill:#1b1b1b;"
      "pointer-events:none}rect{stroke:#fff;stroke-width:0.4}"
      ".fg-title{font:bold 13px ui-monospace,monospace}</style>";
  std::snprintf(buf, sizeof(buf),
                "<rect x=\"0\" y=\"0\" width=\"%.0f\" height=\"%.0f\" "
                "fill=\"#fffdf7\" stroke=\"none\"/>",
                layout.width, height);
  out += buf;
  out += "<text class=\"fg-title\" x=\"8\" y=\"18\">";
  xml_escape(out, title);
  out += "</text>";
  layout.draw(root, 0.0, 0);
  out += layout.body;
  out += "</svg>";
  return out;
}

}  // namespace feam::obs
