#include "fleet/drift.hpp"

#include <iterator>
#include <optional>
#include <utility>

#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "toolchain/packages.hpp"
#include "toolchain/provision.hpp"

namespace feam::fleet {

namespace {

using site::Site;
using support::Rng;

// What one op did to a site: DriftOp's kind and detail.
using Action = std::pair<std::string, std::string>;

// Rewrites the OS identity the way a kernel errata update would: same
// release, new build stamp. A system write, so discovery re-verifies.
Action os_bump(Site& s, int round) {
  s.vfs.write_file("/proc/version",
                   "Linux version " + s.kernel_version +
                       " (gcc version unknown) #" + std::to_string(round + 2) +
                       " SMP\n");
  return {"os-bump", "kernel build #" + std::to_string(round + 2)};
}

Action apply_one(Site& s, Rng& rng, int round) {
  switch (rng.next_below(6)) {
    // An admin touching a module file (edited comment, re-saved): the
    // database *content* changes while the advertised surface does not —
    // the EDC must re-scan and land on the same result.
    case 0:
    case 1: {
      if (s.module_files.empty()) return os_bump(s, round);
      const auto& module =
          s.module_files[rng.next_below(s.module_files.size())];
      const std::string path =
          toolchain::module_database_path(s, module.name);
      if (path.empty()) return os_bump(s, round);
      const support::Bytes* existing = s.vfs.read(path);
      std::string body = existing != nullptr
                             ? std::string(existing->begin(), existing->end())
                             : std::string("#%Module1.0\n");
      body += "# drift round " + std::to_string(round) + "\n";
      s.vfs.write_file(path, body);
      return {"touch-module", module.name};
    }
    // The database entry vanishes (half-finished upgrade): the stack
    // disappears from `module avail` until a repair round.
    case 2: {
      if (s.module_files.empty()) return os_bump(s, round);
      const auto& module =
          s.module_files[rng.next_below(s.module_files.size())];
      const std::string path =
          toolchain::module_database_path(s, module.name);
      if (path.empty()) return os_bump(s, round);
      s.vfs.remove(path);
      return {"break-module", module.name};
    }
    // The admin finishes the upgrade: every advertised module is
    // rewritten, undoing earlier breakage.
    case 3: {
      toolchain::write_module_database(s);
      return {"repair-modules",
              std::to_string(s.module_files.size()) + " modules"};
    }
    // Package re-install at the same prefix: byte-identical libraries
    // (content is seeded by site+soname) under *new* write stamps. The
    // rewrites intern to the libraries' live blobs, so the BDC and parse
    // memos keep hitting while stamp-validated memos re-verify.
    case 4: {
      if (s.stacks.empty()) return os_bump(s, round);
      const auto& stack = s.stacks[rng.next_below(s.stacks.size())];
      toolchain::install_mpi_stack(s, stack);
      return {"reinstall-stack", stack.slug()};
    }
    default:
      return os_bump(s, round);
  }
}

// Site i's share of a round: its ops, drawn from its own stream.
std::vector<DriftOp> drift_site(Fleet& fleet, std::size_t i, const Rng& base,
                                int round) {
  std::vector<DriftOp> ops;
  const double rate = fleet.spec.drift_rate;
  Site& s = *fleet.sites[i];
  Rng rng = base.fork("site-" + std::to_string(i));
  int count = static_cast<int>(rate);
  if (rng.chance(rate - static_cast<double>(count))) ++count;
  if (count == 0) return ops;
  const bool container = fleet.traits[i].container;
  if (container) {
    // Image rebuild: lift the read-only layer, mutate, squash again.
    s.vfs.unseal("/opt");
    s.vfs.unseal("/usr");
  }
  ops.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    auto [kind, detail] = apply_one(s, rng, round);
    if (container) detail += " (image rebuild)";
    ops.push_back({.site_index = static_cast<int>(i), .site = s.name,
                   .kind = std::move(kind), .detail = std::move(detail),
                   .round = round});
  }
  if (container) {
    s.vfs.seal("/opt");
    s.vfs.seal("/usr");
  }
  return ops;
}

}  // namespace

std::vector<DriftOp> apply_drift_round(Fleet& fleet, int round,
                                       support::ThreadPool* pool) {
  std::vector<DriftOp> ops;
  if (fleet.spec.drift_rate <= 0) return ops;
  std::optional<support::ThreadPool> calling_thread;
  support::ThreadPool& workers =
      pool != nullptr ? *pool : calling_thread.emplace(1);
  const Rng base(support::fnv1a_mix(
      fleet.seed,
      support::fnv1a_mix(0x4452494654ull, static_cast<std::uint64_t>(round))));
  // One slot per site, joined in site order: the log is the same at any
  // pool size. Slot 0, the anchor, stays empty.
  std::vector<std::vector<DriftOp>> slots(fleet.sites.size());
  for (std::size_t i = 1; i < fleet.sites.size(); ++i) {
    workers.submit([&, i] { slots[i] = drift_site(fleet, i, base, round); });
  }
  workers.wait();
  for (auto& slot : slots) {
    ops.insert(ops.end(), std::make_move_iterator(slot.begin()),
               std::make_move_iterator(slot.end()));
  }
  return ops;
}

std::string drift_log_jsonl(const std::vector<DriftOp>& ops) {
  std::string out;
  support::JsonWriter w(out);
  for (const DriftOp& op : ops) {
    w.begin_object()
        .key("detail").string(op.detail)
        .key("kind").string(op.kind)
        .key("round").number(op.round)
        .key("schema").string(kDriftLogSchema)
        .key("site").string(op.site)
        .key("site_index").number(op.site_index)
        .end_object();
    out += '\n';
  }
  return out;
}

}  // namespace feam::fleet
