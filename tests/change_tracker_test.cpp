// ChangeTracker: multi-listener dirty bitmaps over the node change hooks,
// late-append syncing, and KB watch-event mirroring.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "continuum/change_tracker.hpp"
#include "continuum/device.hpp"
#include "continuum/node.hpp"
#include "sim/engine.hpp"

namespace myrtus::continuum {
namespace {

std::unique_ptr<ComputeNode> MakeNode(sim::Engine& engine,
                                      const std::string& id) {
  auto node = std::make_unique<ComputeNode>(engine, id, Layer::kEdge, "riscv",
                                            security::SecurityLevel::kLow,
                                            1024);
  node->AddDevice(MakeBigCore(id + "-core"));
  return node;
}

class ChangeTrackerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nodes_.push_back(MakeNode(engine_, "n-0"));
    nodes_.push_back(MakeNode(engine_, "n-1"));
    nodes_.push_back(MakeNode(engine_, "n-2"));
  }

  std::vector<std::size_t> Drained(int listener) {
    std::vector<std::size_t> out;
    tracker_.Drain(nodes_, listener, out);
    return out;
  }

  sim::Engine engine_;
  ChangeTracker::NodeList nodes_;
  ChangeTracker tracker_;
};

TEST_F(ChangeTrackerTest, FreshListenerSeesEveryNodeOnceThenNothing) {
  const int listener = tracker_.AddListener(nodes_);
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(Drained(listener).empty()) << "drain clears the bitmap";
}

TEST_F(ChangeTrackerTest, MutationsMarkOnlyTheTouchedNode) {
  const int listener = tracker_.AddListener(nodes_);
  (void)Drained(listener);
  nodes_[1]->SetUp(false);
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{1}));
  ASSERT_TRUE(nodes_[2]->ReserveMemory(64).ok());
  nodes_[2]->ReleaseMemory(64);
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{2}));
}

TEST_F(ChangeTrackerTest, TaskSubmissionAndCompletionEachMarkTheNode) {
  const int listener = tracker_.AddListener(nodes_);
  (void)Drained(listener);
  TaskDemand task;
  task.cycles = 5'000'000;
  nodes_[2]->Submit(task, [](const TaskReport&) {});
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{2}));
  EXPECT_GT(engine_.Run(), 0u);
  EXPECT_GT(nodes_[2]->total_energy_mj(), 0.0);
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{2}))
      << "the completion that accrued energy marked the node";
}

TEST_F(ChangeTrackerTest, ListenersDrainIndependently) {
  const int first = tracker_.AddListener(nodes_);
  (void)Drained(first);
  const int second = tracker_.AddListener(nodes_);
  nodes_[0]->SetUp(false);
  // `second` still owes its initial full view plus the new mutation;
  // `first` only the mutation.
  EXPECT_EQ(Drained(second), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(Drained(first), (std::vector<std::size_t>{0}));
}

TEST_F(ChangeTrackerTest, LateAppendedNodesAreAttachedAndReportedDirty) {
  const int listener = tracker_.AddListener(nodes_);
  (void)Drained(listener);
  nodes_.push_back(MakeNode(engine_, "n-3"));
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{3}));
  nodes_[3]->SetUp(false);
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{3}))
      << "hook attached to the appended node";
}

TEST_F(ChangeTrackerTest, MarkDirtyByIdMirrorsWatchEvents) {
  const int listener = tracker_.AddListener(nodes_);
  (void)Drained(listener);
  tracker_.MarkDirtyById(nodes_, "n-1", listener);
  tracker_.MarkDirtyById(nodes_, "no-such-node", listener);  // ignored
  EXPECT_EQ(Drained(listener), (std::vector<std::size_t>{1}));
}

}  // namespace
}  // namespace myrtus::continuum
