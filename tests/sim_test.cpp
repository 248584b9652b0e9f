#include <gtest/gtest.h>

#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace ugnirt::sim {
namespace {

TEST(Context, ChargeAdvancesCursorAndTotals) {
  Engine e{EngineOptions{}};
  Context c(e.scheduler(), 3);
  EXPECT_EQ(c.pe(), 3);
  EXPECT_EQ(c.now(), 0);
  c.charge(100);
  c.charge_app(50);
  EXPECT_EQ(c.now(), 150);
  EXPECT_EQ(c.overhead_total(), 100);
  EXPECT_EQ(c.app_total(), 50);
}

TEST(Context, WaitUntilOnlyMovesForward) {
  Engine e{EngineOptions{}};
  Context c(e.scheduler(), 0);
  c.set_now(100);
  c.wait_until(50);  // no-op
  EXPECT_EQ(c.now(), 100);
  c.wait_until(200);
  EXPECT_EQ(c.now(), 200);
  EXPECT_EQ(c.overhead_total(), 100);  // waiting counts as non-app time
}

TEST(Context, ScopedContextNestsCorrectly) {
  Engine e{EngineOptions{}};
  Context outer(e.scheduler(), 1);
  Context inner(e.scheduler(), 2);
  EXPECT_EQ(current(), nullptr);
  {
    ScopedContext s1(outer);
    EXPECT_EQ(current(), &outer);
    {
      ScopedContext s2(inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

}  // namespace
}  // namespace ugnirt::sim
