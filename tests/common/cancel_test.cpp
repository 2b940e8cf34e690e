// CancelToken: the flag request() raises, and the armed deadline that
// makes the token read as requested on its own once it has passed.
#include "common/cancel.hpp"

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

namespace anadex {
namespace {

using Clock = CancelToken::Clock;
using namespace std::chrono_literals;

TEST(CancelToken, ArmedDeadlineRaisesTheTokenWithoutAnyOtherThread) {
  CancelToken token;
  EXPECT_FALSE(token.requested());
  token.arm(Clock::now() + 5ms);
  // Only this thread touches the token: reading it is what notices that
  // the deadline has passed.
  const Clock::time_point give_up = Clock::now() + 10s;
  while (!token.requested() && Clock::now() < give_up) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(token.requested());
  EXPECT_TRUE(token.requested());  // stays raised until reset()

  token.reset();
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.reset();
  EXPECT_FALSE(token.requested());
}

TEST(CancelToken, FutureDeadlineLeavesTheTokenClearAndRequestStillRaisesIt) {
  CancelToken token;
  token.arm(Clock::now() + 1h);
  EXPECT_FALSE(token.requested());
  token.request();
  EXPECT_TRUE(token.requested());
  token.reset();
  EXPECT_FALSE(token.requested());
}

TEST(CancelToken, ResetDisarmsAPassedDeadline) {
  CancelToken token;
  token.arm(Clock::now() - 1ms);
  EXPECT_TRUE(token.requested());
  token.reset();
  EXPECT_FALSE(token.requested());
  std::this_thread::sleep_for(2ms);
  EXPECT_FALSE(token.requested());
}

}  // namespace
}  // namespace anadex
