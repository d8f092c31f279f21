// Section VI.C companion: resource usage of FEAM itself.
//
// The paper reports that both phases always completed in under five
// minutes (debug-queue friendly) and that a source-phase bundle covering
// all test binaries at one site averaged ~45M. This harness times every
// FEAM operation with google-benchmark and reports the aggregate bundle
// size for each site.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "binutils/resolver.hpp"
#include "elf/builder.hpp"
#include "elf/file.hpp"
#include "feam/bdc.hpp"
#include "feam/phases.hpp"
#include "obs/metrics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "toolchain/linker.hpp"
#include "toolchain/testbed.hpp"
#include "workloads/benchmarks.hpp"

using namespace feam;

namespace {

struct Scenario {
  std::unique_ptr<site::Site> home;
  std::unique_ptr<site::Site> target;
  std::string binary_path;
  SourcePhaseOutput source;
};

Scenario& scenario() {
  static Scenario s = [] {
    Scenario out;
    out.home = toolchain::make_site("india");
    out.target = toolchain::make_site("fir");
    const auto* stack = out.home->find_stack(site::MpiImpl::kOpenMpi,
                                             site::CompilerFamily::kGnu);
    toolchain::ProgramSource cg;
    cg.name = "cg.B";
    cg.language = toolchain::Language::kFortran;
    cg.libc_features = {"base", "stdio", "math", "affinity"};
    out.binary_path = toolchain::compile_mpi_program(*out.home, cg, *stack,
                                                     "/home/user/apps/cg.B")
                          .value();
    out.home->load_module("openmpi/1.4-gnu");
    out.source = run_source_phase(*out.home, out.binary_path).take();
    out.target->vfs.write_file("/home/user/migrated/cg.B",
                               *out.home->vfs.read(out.binary_path));
    return out;
  }();
  return s;
}

void BM_ProvisionSite(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(toolchain::make_site("fir"));
  }
}
BENCHMARK(BM_ProvisionSite)->Unit(benchmark::kMillisecond);

void BM_BdcDescribe(benchmark::State& state) {
  Scenario& s = scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Bdc::describe(*s.home, s.binary_path));
  }
}
BENCHMARK(BM_BdcDescribe)->Unit(benchmark::kMicrosecond);

void BM_EdcDiscover(benchmark::State& state) {
  Scenario& s = scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Edc::discover(*s.target));
  }
}
BENCHMARK(BM_EdcDiscover)->Unit(benchmark::kMicrosecond);

void BM_SourcePhase(benchmark::State& state) {
  Scenario& s = scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_source_phase(*s.home, s.binary_path));
  }
  state.counters["bundle_bytes"] =
      static_cast<double>(s.source.bundle.total_bytes());
}
BENCHMARK(BM_SourcePhase)->Unit(benchmark::kMillisecond);

void BM_TargetPhaseBasic(benchmark::State& state) {
  Scenario& s = scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_target_phase(*s.target, "/home/user/migrated/cg.B"));
  }
}
BENCHMARK(BM_TargetPhaseBasic)->Unit(benchmark::kMillisecond);

void BM_TargetPhaseExtended(benchmark::State& state) {
  Scenario& s = scenario();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_target_phase(
        *s.target, "/home/user/migrated/cg.B", &s.source));
  }
}
BENCHMARK(BM_TargetPhaseExtended)->Unit(benchmark::kMillisecond);

// Resolver scalability: the loader-view resolution must stay fast on
// dependency graphs far beyond anything a real MPI application has.
site::Site& scale_site(std::size_t depth, std::size_t width) {
  static std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<site::Site>>
      cache;
  auto& slot = cache[{depth, width}];
  if (slot) return *slot;
  slot = std::make_unique<site::Site>();
  site::Site& s = *slot;
  s.name = "scale";
  s.isa = elf::Isa::kX86_64;

  const auto lib = [&](const std::string& soname,
                       std::vector<std::string> needed) {
    elf::ElfSpec spec;
    spec.isa = elf::Isa::kX86_64;
    spec.kind = elf::FileKind::kSharedObject;
    spec.soname = soname;
    spec.needed = std::move(needed);
    spec.text_size = 64;
    s.vfs.write_file("/lib64/" + soname, elf::build_image(spec));
  };
  // A chain libd0 -> libd1 -> ... and a fan of independent libraries.
  for (std::size_t i = depth; i-- > 0;) {
    lib("libchain" + std::to_string(i) + ".so",
        i + 1 < depth ? std::vector<std::string>{"libchain" +
                                                 std::to_string(i + 1) + ".so"}
                      : std::vector<std::string>{});
  }
  std::vector<std::string> fan;
  for (std::size_t i = 0; i < width; ++i) {
    const std::string soname = "libfan" + std::to_string(i) + ".so";
    lib(soname, {});
    fan.push_back(soname);
  }
  elf::ElfSpec app;
  app.isa = elf::Isa::kX86_64;
  app.needed = std::move(fan);
  if (depth > 0) app.needed.push_back("libchain0.so");
  app.text_size = 64;
  s.vfs.write_file("/app", elf::build_image(app));
  return s;
}

void BM_ResolveDeepChain(benchmark::State& state) {
  site::Site& s = scale_site(static_cast<std::size_t>(state.range(0)), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(binutils::resolve_libraries(s, "/app"));
  }
}
BENCHMARK(BM_ResolveDeepChain)->Arg(16)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_ResolveWideFan(benchmark::State& state) {
  site::Site& s = scale_site(0, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(binutils::resolve_libraries(s, "/app"));
  }
}
BENCHMARK(BM_ResolveWideFan)->Arg(16)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The paper's 45M figure: one bundle holding the union of all shared
// libraries required by all test binaries at a site.
void report_site_bundle_sizes() {
  std::printf("\nPer-site union bundles (all shared libraries required by "
              "all test binaries,\nC library excluded) — paper reports an "
              "average of ~45M:\n");
  for (const auto& name : toolchain::testbed_site_names()) {
    auto s = toolchain::make_site(name);
    std::set<std::string> copied_paths;
    std::size_t bytes = 0;
    for (const auto& stack : s->stacks) {
      for (const auto& workload : workloads::all_workloads()) {
        if (!workloads::combination_viable(workload.program, workload.suite,
                                           stack, name)) {
          continue;
        }
        const std::string path =
            "/tmp/bundle_probe_" + workload.program.name + "." + stack.slug();
        const auto compiled = toolchain::compile_mpi_program(
            *s, workload.program, stack, path);
        if (!compiled.ok()) continue;
        s->unload_all_modules();
        s->load_module(stack.module_name());
        const auto parsed = elf::ElfFile::parse(*s->vfs.read(path));
        if (!parsed.ok()) continue;
        const std::vector<std::string> needed(parsed.value().needed().begin(),
                                              parsed.value().needed().end());
        const auto located = Bdc::locate_libraries(*s, path, needed);
        for (const auto& [lib_name, location] : located) {
          if (!location || support::starts_with(lib_name, "libc.so")) continue;
          if (copied_paths.insert(*location).second) {
            if (const auto* data = s->vfs.read(*location)) {
              bytes += data->size();
            }
          }
        }
        s->vfs.remove(path);
      }
    }
    std::printf("  %-11s %4zu libraries, %s\n", name.c_str(),
                copied_paths.size(), support::human_size(bytes).c_str());
  }
  std::printf("\n");
}

// Aggregate latency distributions collected by the obs histograms while
// the benchmarks above ran — the same steady-clock spans `feam ...
// --trace-out` exports, so these numbers line up with trace timelines.
void report_obs_histograms() {
  static const char* kInteresting[] = {
      "phase.source_ns",  "phase.target_ns",   "bdc.parse_ns",
      "edc.discover_ns",  "tec.evaluate_ns",   "tec.resolution_ns",
      "bundle.pack_ns",   "bundle.unpack_ns",
  };
  std::printf("\nPhase latency histograms (obs subsystem; same clock as "
              "`feam --trace-out` spans):\n");
  support::TextTable table({"Histogram", "Count", "Mean", "p50", "p95"});
  const auto us = [](double ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f us", ns / 1000.0);
    return std::string(buf);
  };
  for (const char* name : kInteresting) {
    obs::Histogram& h = obs::histogram(name);
    if (h.count() == 0) continue;
    table.add_row({name, std::to_string(h.count()), us(h.mean()),
                   us(static_cast<double>(h.percentile(0.50))),
                   us(static_cast<double>(h.percentile(0.95)))});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("SECTION VI.C COMPANION: FEAM resource usage\n");
  report_site_bundle_sizes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_obs_histograms();
  std::printf("\nPaper claim: both phases < 5 minutes on 2011-era debug "
              "queues;\nevery phase above runs in milliseconds in this "
              "simulation.\n");
  return 0;
}
