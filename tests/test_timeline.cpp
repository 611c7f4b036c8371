// Stream/event timeline semantics: per-stream ordering, cross-stream
// independence, event waits, synchronisation, the utilisation log, and
// the typed completions that make a join on unproduced work impossible.
#include <gtest/gtest.h>

#include <type_traits>

#include "vgpu/timeline.hpp"

namespace {

using acsr::vgpu::StreamTimeline;

TEST(StreamTimeline, WorkSerialisesPerStream) {
  StreamTimeline t;
  const auto s = t.create_stream();
  EXPECT_DOUBLE_EQ(t.enqueue(s, 1.0).at_s(), 1.0);
  EXPECT_DOUBLE_EQ(t.enqueue(s, 2.5).at_s(), 3.5);
  EXPECT_DOUBLE_EQ(t.now(s), 3.5);
}

TEST(StreamTimeline, StreamsAreIndependent) {
  StreamTimeline t;
  const auto a = t.create_stream();
  const auto b = t.create_stream();
  t.enqueue(a, 5.0);
  t.enqueue(b, 1.0);
  EXPECT_DOUBLE_EQ(t.now(a), 5.0);
  EXPECT_DOUBLE_EQ(t.now(b), 1.0);
}

TEST(StreamTimeline, EventWaitOrdersAcrossStreams) {
  StreamTimeline t;
  const auto producer = t.create_stream();
  const auto consumer = t.create_stream();
  t.enqueue(producer, 4.0, "h2d");
  const auto ready = t.record(producer);
  t.enqueue(consumer, 1.0, "unrelated");
  t.wait(consumer, ready);  // cannot start the kernel before the copy
  EXPECT_DOUBLE_EQ(t.enqueue(consumer, 2.0, "kernel").at_s(), 6.0);
}

TEST(StreamTimeline, WaitOnPastEventIsFree) {
  StreamTimeline t;
  const auto a = t.create_stream();
  const auto b = t.create_stream();
  const auto e = t.record(a);  // time 0
  t.enqueue(b, 3.0);
  t.wait(b, e);
  EXPECT_DOUBLE_EQ(t.now(b), 3.0);  // no rollback
}

TEST(StreamTimeline, SynchronizeJoinsEverything) {
  StreamTimeline t;
  const auto a = t.create_stream();
  const auto b = t.create_stream();
  const auto c = t.create_stream();
  t.enqueue(a, 1.0);
  t.enqueue(b, 7.0);
  t.enqueue(c, 3.0);
  EXPECT_DOUBLE_EQ(t.synchronize(), 7.0);
  // After the join every stream starts from the makespan.
  EXPECT_DOUBLE_EQ(t.enqueue(a, 1.0).at_s(), 8.0);
}

TEST(StreamTimeline, OverlapBeatsSerial) {
  // The classic copy/compute pipeline: with two streams the transfer of
  // chunk i+1 overlaps the kernel on chunk i.
  auto run = [](bool overlapped) {
    StreamTimeline t;
    const auto copy = t.create_stream();
    const auto exec = overlapped ? t.create_stream() : copy;
    for (int chunk = 0; chunk < 4; ++chunk) {
      t.enqueue(copy, 1.0, "h2d");
      const auto done = t.record(copy);
      t.wait(exec, done);
      t.enqueue(exec, 1.0, "kernel");
    }
    return t.synchronize();
  };
  EXPECT_DOUBLE_EQ(run(false), 8.0);
  EXPECT_DOUBLE_EQ(run(true), 5.0);
}

TEST(StreamTimeline, LogAndBusyTime) {
  StreamTimeline t;
  const auto s = t.create_stream();
  t.enqueue(s, 2.0, "a");
  t.enqueue(s, 3.0, "b");
  ASSERT_EQ(t.log().size(), 2u);
  EXPECT_EQ(t.log()[1].tag, "b");
  EXPECT_DOUBLE_EQ(t.log()[1].start_s, 2.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(), 5.0);
}

TEST(StreamTimeline, RejectsBadInput) {
  StreamTimeline t;
  const auto s = t.create_stream();
  EXPECT_THROW(t.enqueue(s, -1.0), acsr::InvariantError);
  EXPECT_THROW(t.now(99), acsr::InvariantError);
  EXPECT_THROW(t.enqueue(42, 1.0), acsr::InvariantError);
}

// Only the timeline makes events: a join cannot wait on a bare double,
// nor on a default event that would read as time 0.
static_assert(!std::is_constructible_v<StreamTimeline::Event, double>);
static_assert(!std::is_default_constructible_v<StreamTimeline::Event>);

TEST(StreamTimeline, CompletionReadBeforeItIsProducedThrows) {
  StreamTimeline t;
  const auto s = t.create_stream();
  StreamTimeline::Completions done(2);
  EXPECT_THROW(done[0], acsr::InvariantError);
  done.push_back(t.enqueue(s, 1.5));
  EXPECT_DOUBLE_EQ(done[0].at_s(), 1.5);
  EXPECT_THROW(done[1], acsr::InvariantError);
}

}  // namespace
