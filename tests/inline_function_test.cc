#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "util/inline_function.h"

namespace converge {
namespace {

TEST(InlineFunctionTest, EmptyIsFalseAssignedIsTrue) {
  InlineFunction<int()> fn;
  EXPECT_FALSE(fn);
  fn = [] { return 42; };
  ASSERT_TRUE(fn);
  EXPECT_EQ(fn(), 42);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(InlineFunctionTest, ForwardsArgumentsAndReturn) {
  InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunctionTest, MoveTransfersOwnership) {
  int calls = 0;
  InlineFunction<void()> a = [&calls] { ++calls; };
  InlineFunction<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): checking moved state
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(calls, 1);
}

TEST(InlineFunctionTest, MoveOnlyCapturesWork) {
  auto ptr = std::make_unique<int>(7);
  InlineFunction<int()> fn = [p = std::move(ptr)] { return *p; };
  EXPECT_EQ(fn(), 7);
  // And the wrapper itself moves without copying the capture.
  InlineFunction<int()> fn2 = std::move(fn);
  EXPECT_EQ(fn2(), 7);
}

TEST(InlineFunctionTest, OversizedCaptureUsesHeapCorrectly) {
  // 256 bytes of capture against a 48-byte buffer: heap fallback path.
  std::array<uint64_t, 32> big{};
  for (size_t i = 0; i < big.size(); ++i) big[i] = i;
  InlineFunction<uint64_t(), 48> fn = [big] {
    uint64_t sum = 0;
    for (uint64_t v : big) sum += v;
    return sum;
  };
  EXPECT_EQ(fn(), 31u * 32u / 2u);
  InlineFunction<uint64_t(), 48> moved = std::move(fn);
  EXPECT_EQ(moved(), 31u * 32u / 2u);
}

TEST(InlineFunctionTest, DestructorRunsCaptureDestructor) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> n;
    ~Probe() {
      if (n) ++*n;
    }
    Probe(std::shared_ptr<int> n) : n(std::move(n)) {}
    Probe(Probe&& o) noexcept : n(std::move(o.n)) {}
    void operator()() const {}
  };
  {
    InlineFunction<void()> fn = Probe(counter);
    fn();
  }
  EXPECT_EQ(*counter, 1);  // exactly one live Probe was destroyed
}

TEST(InlineFunctionTest, MoveAssignReleasesPreviousTarget) {
  auto released = std::make_shared<int>(0);
  InlineFunction<void()> fn = [keep = released] {};
  EXPECT_EQ(released.use_count(), 2);
  fn = [] {};
  EXPECT_EQ(released.use_count(), 1);  // old capture destroyed on assign
}

TEST(InlineFunctionTest, HeapFallbacksAreCountedOnlyOnTheHeapBranch) {
  const int64_t before = InlineFunctionHeapFallbacks();
  int calls = 0;
  InlineFunction<void(), 48> small = [&calls] { ++calls; };
  InlineFunction<void(), 48> moved = std::move(small);
  moved();
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before);  // inline: not counted

  std::array<uint64_t, 32> big{};
  InlineFunction<uint64_t(), 48> spilled = [big] { return big[0]; };
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before + 1);
  // Moving a spilled callable hands over the pointer; no new fallback.
  InlineFunction<uint64_t(), 48> spilled_moved = std::move(spilled);
  EXPECT_EQ(spilled_moved(), 0u);
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before + 1);

  // The same capture fits a bigger buffer inline.
  InlineFunction<uint64_t(), 256> roomy = [big] { return big[0]; };
  EXPECT_EQ(InlineFunctionHeapFallbacks(), before + 1);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace converge
