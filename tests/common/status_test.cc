#include "common/status.h"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"

namespace rstore {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(Status::OK().code(), Status::Code::kOk);
}

TEST(StatusTest, ErrorCodesAndPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_FALSE(Status::NotFound("x").ok());
}

TEST(StatusTest, EveryCodeRoundTripsThroughToString) {
  // One entry per Status::Code; a new code must be added here (and below in
  // DistinctCodesCoverTheEnum) to keep the suite exhaustive.
  const std::vector<std::pair<Status, const char*>> cases = {
      {Status::OK(), "OK"},
      {Status::NotFound("m"), "NotFound"},
      {Status::InvalidArgument("m"), "InvalidArgument"},
      {Status::Corruption("m"), "Corruption"},
      {Status::IOError("m"), "IOError"},
      {Status::AlreadyExists("m"), "AlreadyExists"},
      {Status::NotSupported("m"), "NotSupported"},
      {Status::Aborted("m"), "Aborted"},
  };
  for (const auto& [status, name] : cases) {
    if (status.ok()) {
      EXPECT_EQ(status.ToString(), name);
    } else {
      EXPECT_EQ(status.ToString(), std::string(name) + ": m");
      EXPECT_EQ(status.message(), "m");
    }
  }
}

TEST(StatusTest, DistinctCodesCoverTheEnum) {
  const std::vector<Status> all = {
      Status::OK(),           Status::NotFound("x"),
      Status::InvalidArgument("x"), Status::Corruption("x"),
      Status::IOError("x"),   Status::AlreadyExists("x"),
      Status::NotSupported("x"),    Status::Aborted("x"),
  };
  std::set<Status::Code> seen;
  for (const Status& s : all) seen.insert(s.code());
  // kAborted is the highest code; every value in [0, kAborted] is covered.
  EXPECT_EQ(seen.size(), all.size());
  EXPECT_EQ(static_cast<int>(Status::Code::kAborted) + 1,
            static_cast<int>(all.size()));
}

TEST(StatusTest, EmptyMessageToStringOmitsSeparator) {
  EXPECT_EQ(Status::IOError("").ToString(), "IOError");
}

// Compile-time shape checks for the error-handling discipline: fallible APIs
// return Status / Result<T> by value, which are [[nodiscard]] class types.
// The negative half — that discarding such a return actually fails the build
// — is covered by the common.nodiscard_enforced ctest entry, which compiles
// tests/common/nodiscard_violation.cc with -Werror=unused-result and expects
// the build to fail.
static_assert(std::is_same_v<decltype(std::declval<Status>().ToString()),
                             std::string>);
static_assert(!std::is_convertible_v<Status, bool>,
              "Status must not silently convert to bool");
static_assert(std::is_same_v<decltype(std::declval<Result<int>>().status()),
                             const Status&>);

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::Corruption("bad header");
  EXPECT_EQ(s.ToString(), "Corruption: bad header");
  EXPECT_EQ(s.message(), "bad header");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = [](bool fail) -> Status {
    if (fail) return Status::IOError("disk");
    return Status::OK();
  };
  auto outer = [&](bool fail) -> Status {
    RSTORE_RETURN_IF_ERROR(inner(fail));
    return Status::NotFound("after");
  };
  EXPECT_TRUE(outer(true).IsIOError());
  EXPECT_TRUE(outer(false).IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, DereferencingAnRvalueMoves) {
  // Compiles only if `*std::move(r)` yields T&&: unique_ptr cannot be
  // copied out of the const& overload.
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  static_assert(std::is_same_v<decltype(*std::move(r)),
                               std::unique_ptr<int>&&>);
  std::unique_ptr<int> v = *std::move(r);
  EXPECT_EQ(*v, 9);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

}  // namespace
}  // namespace rstore
