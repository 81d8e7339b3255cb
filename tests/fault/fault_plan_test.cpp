#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.h"

namespace liger::fault {
namespace {

FaultEvent event(FaultKind kind, sim::SimTime t, int node = 0, int device = 0) {
  FaultEvent ev;
  ev.kind = kind;
  ev.time = t;
  ev.node = node;
  ev.device = device;
  return ev;
}

TEST(FaultPlanTest, DescribeAndKindNames) {
  auto ev = event(FaultKind::kDeviceFailStop, sim::milliseconds(50), 0, 2);
  EXPECT_EQ(ev.describe().substr(0, 15), "fail_stop(n0.g2");
  EXPECT_STREQ(fault_kind_name(FaultKind::kStraggler), "straggler");
  EXPECT_STREQ(fault_kind_name(FaultKind::kLinkDegrade), "link_degrade");
  // Link faults are node-scoped: no device in the label.
  auto link = event(FaultKind::kLinkDegrade, 0, 1);
  EXPECT_EQ(link.describe().substr(0, 16), "link_degrade(n1)");
}

TEST(FaultPlanTest, HasFailStop) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_fail_stop());
  auto straggler = event(FaultKind::kStraggler, 0);
  straggler.factor = 0.5;
  straggler.duration = sim::milliseconds(1);
  plan.events.push_back(straggler);
  EXPECT_FALSE(plan.has_fail_stop());
  plan.events.push_back(event(FaultKind::kDeviceFailStop, 0));
  EXPECT_TRUE(plan.has_fail_stop());
}

TEST(FaultPlanTest, ValidateAcceptsWellFormedPlan) {
  FaultPlan plan;
  plan.events.push_back(event(FaultKind::kDeviceFailStop, sim::milliseconds(5), 1, 3));
  auto straggler = event(FaultKind::kStraggler, sim::milliseconds(1), 0, 0);
  straggler.factor = 0.4;
  straggler.duration = sim::milliseconds(2);
  plan.events.push_back(straggler);
  auto flap = event(FaultKind::kLinkFlap, sim::milliseconds(2), 1);
  flap.factor = 0.1;
  flap.period = sim::milliseconds(4);
  flap.duration = sim::milliseconds(8);
  plan.events.push_back(flap);
  EXPECT_NO_THROW(plan.validate(/*num_nodes=*/2, /*devices_per_node=*/4));
}

TEST(FaultPlanTest, ValidateRejectsOutOfRangeTargets) {
  FaultPlan plan;
  plan.events.push_back(event(FaultKind::kDeviceFailStop, 0, /*node=*/2, 0));
  EXPECT_THROW(plan.validate(2, 4), std::invalid_argument);
  plan.events[0] = event(FaultKind::kDeviceFailStop, 0, 0, /*device=*/4);
  EXPECT_THROW(plan.validate(2, 4), std::invalid_argument);
  plan.events[0] = event(FaultKind::kDeviceFailStop, -sim::milliseconds(1));
  EXPECT_THROW(plan.validate(2, 4), std::invalid_argument);
}

TEST(FaultPlanTest, ValidateRejectsBadParameters) {
  const auto reject = [](FaultEvent ev) {
    FaultPlan plan;
    plan.events.push_back(ev);
    EXPECT_THROW(plan.validate(2, 4), std::invalid_argument) << ev.describe();
  };

  auto straggler = event(FaultKind::kStraggler, 0);
  straggler.factor = 1.0;  // must be < 1
  straggler.duration = sim::milliseconds(1);
  reject(straggler);
  straggler.factor = 0.5;
  straggler.duration = 0;  // transient faults need a window
  reject(straggler);

  auto degrade = event(FaultKind::kLinkDegrade, 0, 1);
  degrade.factor = 0.0;  // (0, 1]
  reject(degrade);

  auto flap = event(FaultKind::kLinkFlap, 0, 1);
  flap.factor = 0.1;
  flap.period = 0;  // needs a positive period
  flap.duration = sim::milliseconds(8);
  reject(flap);
  flap.period = sim::milliseconds(4);
  flap.duration = sim::milliseconds(2);  // must cover >= one period
  reject(flap);

  auto stall = event(FaultKind::kHostStall, 0);
  stall.duration = 0;
  reject(stall);
}

TEST(FaultPlanTest, ParsesFullConfigFromJson) {
  const auto cfg = fault_config_from_json(util::parse_json(R"({
    "plan": [
      {"kind": "fail_stop", "t_ms": 50.0, "node": 0, "device": 2},
      {"kind": "straggler", "t_ms": 10.0, "node": 1, "device": 1,
       "factor": 0.4, "duration_ms": 20.0},
      {"kind": "link_flap", "t_ms": 5.0, "node": 1, "factor": 0.1,
       "duration_ms": 40.0, "period_ms": 4.0}
    ],
    "detection": {"heartbeat_interval_us": 250, "miss_threshold": 5},
    "recovery": {"replan_ms": 8.0}
  })"));
  // A present "faults" section is enabled unless it opts out.
  EXPECT_TRUE(cfg.enabled);
  ASSERT_EQ(cfg.plan.events.size(), 3u);
  EXPECT_EQ(cfg.plan.events[0].kind, FaultKind::kDeviceFailStop);
  EXPECT_EQ(cfg.plan.events[0].time, sim::milliseconds(50));
  EXPECT_EQ(cfg.plan.events[0].device, 2);
  EXPECT_EQ(cfg.plan.events[1].kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(cfg.plan.events[1].factor, 0.4);
  EXPECT_EQ(cfg.plan.events[1].duration, sim::milliseconds(20));
  EXPECT_EQ(cfg.plan.events[2].period, sim::milliseconds(4));
  EXPECT_EQ(cfg.detection.heartbeat_interval, sim::microseconds(250));
  EXPECT_EQ(cfg.detection.miss_threshold, 5);
  EXPECT_EQ(cfg.detection.max_detection_latency(), sim::microseconds(1250));
  EXPECT_EQ(cfg.replan_latency, sim::milliseconds(8));
}

TEST(FaultPlanTest, JsonDefaultsAndExplicitDisable) {
  const auto cfg = fault_config_from_json(util::parse_json(R"({"enabled": false})"));
  EXPECT_FALSE(cfg.enabled);
  EXPECT_TRUE(cfg.plan.empty());
  EXPECT_EQ(cfg.detection.heartbeat_interval, sim::microseconds(500));
  EXPECT_EQ(cfg.detection.miss_threshold, 3);
  EXPECT_EQ(cfg.replan_latency, sim::milliseconds(5));
}

TEST(FaultPlanTest, JsonRejectsUnknownKindAndBadDetection) {
  EXPECT_THROW(fault_event_from_json(util::parse_json(R"({"kind": "meteor"})")),
               std::invalid_argument);
  EXPECT_THROW(fault_config_from_json(util::parse_json(
                   R"({"detection": {"miss_threshold": 0}})")),
               std::invalid_argument);
  EXPECT_THROW(fault_config_from_json(util::parse_json(
                   R"({"recovery": {"replan_ms": -1.0}})")),
               std::invalid_argument);
}

TEST(FaultPlanTest, JsonRejectsIntsOutsideIntRange) {
  // 2^32 used to narrow to node 0 and pass validate(); 2^32 + 1 used to
  // narrow to a miss threshold of 1 and pass the >= 1 check.
  const auto message_for = [](const char* json) -> std::string {
    try {
      fault_config_from_json(util::parse_json(json));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_for(R"({"plan": [{"node": 4294967296}]})").find("node"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"plan": [{"device": -4294967294}]})").find("device"),
            std::string::npos);
  EXPECT_NE(message_for(R"({"detection": {"miss_threshold": 4294967297}})")
                .find("miss_threshold"),
            std::string::npos);
}

}  // namespace
}  // namespace liger::fault
