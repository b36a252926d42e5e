// SmartScript evaluator tests: Groovy runtime semantics over the system
// state (the C++ equivalent of executing the generated Promela model).
#include <gtest/gtest.h>

#include <deque>

#include "config/builder.hpp"
#include "ir/analyzer.hpp"
#include "model/evaluator.hpp"
#include "model/system_model.hpp"
#include "util/error.hpp"

namespace iotsan::model {
namespace {

/// Builds a one-app system around `methods` with a standard device set,
/// runs `handler` on an optional event, and exposes the results.
class Harness {
 public:
  explicit Harness(const std::string& methods,
                   const std::string& extra_inputs = "") {
    config::DeploymentBuilder b("harness");
    b.ContactPhone("555-0100");
    b.Device("sw1", "smartSwitch", {"light"});
    b.Device("sw2", "smartSwitch", {"light"});
    b.Device("lock1", "smartLock", {"mainDoorLock"});
    b.Device("temp1", "temperatureSensor", {"tempSensor"});
    b.Device("motion1", "motionSensor");
    b.Device("dimmer1", "dimmerSwitch");
    auto binder = b.App("Harness App");
    binder.Devices("switches", {"sw1", "sw2"})
        .Devices("lock1", {"lock1"})
        .Devices("sensor", {"temp1"})
        .Devices("motion1", {"motion1"})
        .Devices("dimmer1", {"dimmer1"})
        .Number("threshold", 65)
        .Text("greeting", "hello");

    std::string source = R"(
definition(name: "Harness App", namespace: "t")
preferences {
    section("S") {
        input "switches", "capability.switch", multiple: true
        input "lock1", "capability.lock"
        input "sensor", "capability.temperatureMeasurement"
        input "motion1", "capability.motionSensor"
        input "dimmer1", "capability.switchLevel"
        input "threshold", "number"
        input "greeting", "text"
)" + extra_inputs + R"(
    }
}
def installed() {
    subscribe(motion1, "motion", handler)
}
)" + methods;

    std::vector<ir::AnalyzedApp> apps;
    apps.push_back(ir::AnalyzeSource(source, "Harness App"));
    model_ = std::make_unique<SystemModel>(b.Build(), std::move(apps));
    state_ = model_->MakeInitialState();
  }

  /// Runs `handler(evt)` with a motion/active event.
  void Run(const std::string& handler = "handler") {
    devices::Event event;
    event.source = devices::EventSource::kDevice;
    event.device = model_->DeviceIndex("motion1");
    event.attribute = 0;
    event.value = 1;  // active
    Evaluator evaluator(*model_, state_, queue_, log_, failure_,
                        /*notes=*/true, &event_values_);
    evaluator.InvokeHandler(0, handler, &event);
  }

  std::string Attr(const std::string& device, const std::string& attr) {
    const int d = model_->DeviceIndex(device);
    const int a = model_->devices()[d].AttributeIndex(attr);
    return model_->devices()[d].attributes()[a]->ValueName(
        state_.devices[d].values[a]);
  }

  SystemModel& model() { return *model_; }
  SystemState& state() { return state_; }
  CascadeLog& log() { return log_; }
  std::deque<devices::Event>& queue() { return queue_; }
  FailureScenario& failure() { return failure_; }

 private:
  std::unique_ptr<SystemModel> model_;
  SystemState state_;
  std::deque<devices::Event> queue_;
  CascadeLog log_;
  FailureScenario failure_;
  EventValueCache event_values_;
};

TEST(EvaluatorTest, DeviceCommandUpdatesStateAndQueues) {
  Harness h("def handler(evt) { lock1.unlock() }");
  h.Run();
  EXPECT_EQ(h.Attr("lock1", "lock"), "unlocked");
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_TRUE(h.log().commands[0].delivered);
  EXPECT_TRUE(h.log().commands[0].state_changed);
  ASSERT_EQ(h.queue().size(), 1u);  // actuator state-change event
  EXPECT_EQ(h.queue()[0].source, devices::EventSource::kDevice);
}

TEST(EvaluatorTest, ListBroadcastCommandsEveryDevice) {
  Harness h("def handler(evt) { switches.on() }");
  h.Run();
  EXPECT_EQ(h.Attr("sw1", "switch"), "on");
  EXPECT_EQ(h.Attr("sw2", "switch"), "on");
  EXPECT_EQ(h.log().commands.size(), 2u);
}

TEST(EvaluatorTest, NoOpCommandDoesNotQueueEvents) {
  // Locks start locked; lock() is a no-op (Algorithm 1 line 17).
  Harness h("def handler(evt) { lock1.lock() }");
  h.Run();
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_FALSE(h.log().commands[0].state_changed);
  EXPECT_TRUE(h.queue().empty());
}

TEST(EvaluatorTest, ArgumentCommands) {
  Harness h("def handler(evt) { dimmer1.setLevel(75) }");
  h.Run();
  EXPECT_EQ(h.Attr("dimmer1", "level"), "75");
}

TEST(EvaluatorTest, EventObjectFields) {
  Harness h(R"(
def handler(evt) {
    state.name = evt.name
    state.value = evt.value
    state.who = evt.displayName
}
)");
  h.Run();
  const auto& app_state = h.state().app_state[0];
  EXPECT_EQ(app_state.at("name").AsString(), "motion");
  EXPECT_EQ(app_state.at("value").AsString(), "active");
  EXPECT_EQ(app_state.at("who").AsString(), "motion1");
}

TEST(EvaluatorTest, AttributeReads) {
  Harness h(R"(
def handler(evt) {
    state.t = sensor.currentTemperature
    state.sw = switches.first.currentSwitch
    state.viaMethod = lock1.currentValue("lock")
}
)");
  h.Run();
  const auto& app_state = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(app_state.at("t").AsNumber(), 70);  // initial reading
  EXPECT_EQ(app_state.at("sw").AsString(), "off");
  EXPECT_EQ(app_state.at("viaMethod").AsString(), "locked");
}

TEST(EvaluatorTest, GroovyTruthinessAndElvis) {
  Harness h(R"(
def handler(evt) {
    state.a = "" ? 1 : 2
    state.b = 0 ? 1 : 2
    state.c = [] ? 1 : 2
    state.d = "x" ? 1 : 2
    state.e = null ?: 9
    state.f = 5 ?: 9
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("a").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("b").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("c").AsNumber(), 2);
  EXPECT_DOUBLE_EQ(s.at("d").AsNumber(), 1);
  EXPECT_DOUBLE_EQ(s.at("e").AsNumber(), 9);
  EXPECT_DOUBLE_EQ(s.at("f").AsNumber(), 5);
}

TEST(EvaluatorTest, CollectionUtilities) {
  Harness h(R"(
def handler(evt) {
    def nums = [3, 1, 2]
    state.size = nums.size()
    state.sum = nums.sum()
    state.found = nums.find { it > 1 }
    state.count = nums.count { it > 1 }
    state.any = nums.any { it == 2 }
    state.every = nums.every { it > 0 }
    state.joined = nums.collect { it * 10 }.join(",")
    state.has = 2 in nums
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("size").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("sum").AsNumber(), 6);
  EXPECT_DOUBLE_EQ(s.at("found").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("count").AsNumber(), 2);
  EXPECT_TRUE(s.at("any").AsBool());
  EXPECT_TRUE(s.at("every").AsBool());
  EXPECT_EQ(s.at("joined").AsString(), "30,10,20");
  EXPECT_TRUE(s.at("has").AsBool());
}

TEST(EvaluatorTest, DeviceListFiltering) {
  Harness h(R"(
def handler(evt) {
    switches.first.on()
    def lit = switches.findAll { it.currentSwitch == "on" }
    state.litCount = lit.size()
    lit.each { it.off() }
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("litCount").AsNumber(), 1);
  EXPECT_EQ(h.Attr("sw1", "switch"), "off");
}

TEST(EvaluatorTest, StringMethodsAndInterpolation) {
  Harness h(R"(
def handler(evt) {
    state.upper = greeting.toUpperCase()
    state.msg = "value is ${evt.value} at ${greeting}"
    state.n = "42".toInteger() + 1
    state.starts = greeting.startsWith("he")
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_EQ(s.at("upper").AsString(), "HELLO");
  EXPECT_EQ(s.at("msg").AsString(), "value is active at hello");
  EXPECT_DOUBLE_EQ(s.at("n").AsNumber(), 43);
  EXPECT_TRUE(s.at("starts").AsBool());
}

TEST(EvaluatorTest, UserMethodsAndRecursionControl) {
  Harness h(R"(
def handler(evt) {
    state.result = fib(10)
}
def fib(n) {
    if (n < 2) {
        return n
    }
    return fib(n - 1) + fib(n - 2)
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("result").AsNumber(), 55);
}

TEST(EvaluatorTest, ControlFlow) {
  Harness h(R"(
def handler(evt) {
    def total = 0
    for (x in [1, 2, 3, 4]) {
        if (x % 2 == 0) {
            total += x
        }
    }
    def i = 0
    while (i < 3) {
        i = i + 1
    }
    state.total = total
    state.i = i
}
)");
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("total").AsNumber(), 6);
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("i").AsNumber(), 3);
}

TEST(EvaluatorTest, UnboundedLoopIsCutOff) {
  Harness h("def handler(evt) { while (true) { } }");
  EXPECT_THROW(h.Run(), Error);
}

TEST(EvaluatorTest, ModeChangeQueuesLocationEvent) {
  Harness h("def handler(evt) { setLocationMode(\"Away\") }");
  h.Run();
  EXPECT_EQ(h.state().mode, 1);
  ASSERT_EQ(h.queue().size(), 1u);
  EXPECT_EQ(h.queue()[0].source, devices::EventSource::kLocationMode);
  EXPECT_EQ(h.log().mode_setters, (std::vector<int>{0}));
  EXPECT_THROW(
      [] {
        Harness bad("def handler(evt) { setLocationMode(\"Mars\") }");
        bad.Run();
      }(),
      SemanticError);
}

TEST(EvaluatorTest, SmsRecipientChecking) {
  Harness good("def handler(evt) { sendSms(\"555-0100\", \"hi\") }");
  good.Run();
  ASSERT_EQ(good.log().api_calls.size(), 1u);
  EXPECT_FALSE(good.log().api_calls[0].recipient_mismatch);
  EXPECT_TRUE(good.log().user_notified);

  Harness bad("def handler(evt) { sendSms(\"555-ATTACKER\", \"hi\") }");
  bad.Run();
  EXPECT_TRUE(bad.log().api_calls[0].recipient_mismatch);
  EXPECT_FALSE(bad.log().user_notified);
}

TEST(EvaluatorTest, FailureScenarioDropsCommands) {
  Harness h("def handler(evt) { lock1.unlock() }");
  h.failure().actuator_offline = true;
  h.Run();
  EXPECT_EQ(h.Attr("lock1", "lock"), "locked");  // command lost
  ASSERT_EQ(h.log().commands.size(), 1u);
  EXPECT_FALSE(h.log().commands[0].delivered);
  EXPECT_EQ(h.log().failed_deliveries, 1);
  EXPECT_TRUE(h.queue().empty());
}

TEST(EvaluatorTest, RunInRegistersTimerOnce) {
  Harness h(R"(
def handler(evt) {
    runIn(60, later)
    runIn(60, later)
}
def later() { switches.off() }
)");
  h.Run();
  // SmartThings replaces pending timers: only one entry.
  EXPECT_EQ(h.state().timers.size(), 1u);
}

TEST(EvaluatorTest, MathAndNumberMethods) {
  Harness h(R"(
def handler(evt) {
    state.a = Math.abs(-3)
    state.b = Math.max(2, 5)
    state.c = Math.round(2.6)
    state.d = 7.9.toInteger()
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("a").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("b").AsNumber(), 5);
  EXPECT_DOUBLE_EQ(s.at("c").AsNumber(), 3);
  EXPECT_DOUBLE_EQ(s.at("d").AsNumber(), 7);
}

TEST(EvaluatorTest, RuntimeErrorsAreDiagnosed) {
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { sensor.explode() }");
        h.Run();
      }(),
      SemanticError);
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { state.x = 1 / 0 }");
        h.Run();
      }(),
      SemanticError);
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { state.bad = [1, 2] }");
        h.Run();
      }(),
      SemanticError);  // state must hold scalars
  EXPECT_THROW(
      [] {
        Harness h("def handler(evt) { nope.on() }");
        h.Run();
      }(),
      SemanticError);
}

TEST(EvaluatorTest, SafeNavigationOnNull) {
  Harness h(R"(
def handler(evt) {
    def x = null
    state.v = x?.size()
    state.ok = 1
}
)");
  h.Run();
  EXPECT_TRUE(h.state().app_state[0].at("v").is_null());
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("ok").AsNumber(), 1);
}

TEST(EvaluatorTest, AppWritingIntoEventGetsAFreshObjectPerDispatch) {
  // Event objects are shared between dispatches only with apps that
  // never write into a map; this one does, so its mark never leaks into
  // the next dispatch.
  Harness h(R"(
def handler(evt) {
    if (evt.marked) { state.reused = true }
    evt.marked = true
}
)");
  h.Run();
  h.Run();
  EXPECT_EQ(h.state().app_state[0].count("reused"), 0u);
}

TEST(EvaluatorTest, StateMapReadsInPlace) {
  Harness h(R"(
def handler(evt) {
    state.x = 5
    state.viaIndex = state["x"]
    state.viaGet = state.get("x")
    state.missing = state["nope"]
    state.has = state.containsKey("x")
    state.hasNot = state.containsKey("nope")
}
)");
  h.Run();
  const auto& s = h.state().app_state[0];
  EXPECT_DOUBLE_EQ(s.at("viaIndex").AsNumber(), 5);
  EXPECT_DOUBLE_EQ(s.at("viaGet").AsNumber(), 5);
  EXPECT_TRUE(s.at("missing").is_null());
  EXPECT_TRUE(s.at("has").AsBool());
  EXPECT_FALSE(s.at("hasNot").AsBool());
}

TEST(EvaluatorTest, UnevaluableInterpolationsStayVerbatim) {
  Harness h(R"(
def handler(evt) {
    state.msg = "a ${evt.value} b ${(} c ${noSuchName} d ${e"
}
)");
  h.Run();
  EXPECT_EQ(h.state().app_state[0].at("msg").AsString(),
            "a active b ${(} c ${noSuchName} d ${e");
}

TEST(EvaluatorTest, PersistentStateSurvivesAcrossInvocations) {
  Harness h(R"(
def handler(evt) {
    def current = state.count
    state.count = (current ?: 0) + 1
}
)");
  h.Run();
  h.Run();
  h.Run();
  EXPECT_DOUBLE_EQ(h.state().app_state[0].at("count").AsNumber(), 3);
}

}  // namespace
}  // namespace iotsan::model
