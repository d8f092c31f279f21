// Multi-threaded producers against the obs subsystem: per-thread span
// buffers merged in finish order at export, thread ids on every record,
// and counters/histograms staying exact under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace feam::obs {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    collector().clear();
    collector().set_enabled(true);
  }
  void TearDown() override {
    collector().set_enabled(false);
    collector().clear();
  }
};

constexpr int kThreads = 8;
constexpr int kPerThread = 250;

TEST_F(ConcurrencyTest, SpansFromManyThreadsAllSurviveTheMerge) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span("stress.worker", {{"worker", std::to_string(t)}});
        span.finish();
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto spans = collector().spans();
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);

  // Export order is the process-wide finish order: seq strictly increases.
  std::set<int> tids;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    tids.insert(spans[i].tid);
    EXPECT_NE(spans[i].id, 0u);
    if (i > 0) {
      EXPECT_LT(spans[i - 1].seq, spans[i].seq);
    }
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(ConcurrencyTest, SpanIdsAreUniqueAcrossThreads) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span("stress.unique");
        span.finish();
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<std::uint64_t> ids;
  for (const auto& span : collector().spans()) ids.insert(span.id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST_F(ConcurrencyTest, NestingStaysWithinEachThread) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        Span outer("stress.outer");
        {
          Span inner("stress.inner");
          inner.finish();
        }
        outer.finish();
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every inner span's parent is an outer span recorded by the same
  // thread — never a span that happened to be open on another thread.
  const auto spans = collector().spans();
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  for (const auto& span : spans) {
    if (span.name != "stress.inner") continue;
    ASSERT_NE(span.parent_id, 0u);
    const auto parent = by_id.find(span.parent_id);
    ASSERT_NE(parent, by_id.end());
    EXPECT_EQ(parent->second->name, "stress.outer");
    EXPECT_EQ(parent->second->tid, span.tid);
  }
}

TEST_F(ConcurrencyTest, CountersAndHistogramsAreExactUnderContention) {
  Counter& c = counter("stress.counter");
  Histogram& h = histogram("stress.histogram");
  c.reset();
  h.reset();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.record(1000);
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(c.value(), expected);
  const auto snapshot = h.snapshot();
  EXPECT_EQ(snapshot.count, expected);
}

TEST_F(ConcurrencyTest, EventsFromManyThreadsAllLand) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        emit(Level::kInfo, "stress.event", "w" + std::to_string(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(collector().events().size(),
            static_cast<std::size_t>(kThreads) * 50);
}

}  // namespace
}  // namespace feam::obs
