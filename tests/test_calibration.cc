/**
 * @file
 * The calibration tests: one gtest per suite.name of the calibration
 * table (bench/calibration.hh), checking every row of that name. A
 * failure names the figure, the paper band, the bound and the
 * measured value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "bench/calibration.hh"

using namespace cllm::bench::calibration;

namespace {

bool
sameTest(const Row &a, const Row &b)
{
    return std::string_view(a.suite) == b.suite &&
           std::string_view(a.name) == b.name;
}

/** Checks every row that shares `named`'s suite.name. */
class RowTest : public ::testing::Test
{
  public:
    explicit RowTest(const Row &named) : named_(named) {}

    void
    TestBody() override
    {
        for (const Row &r : kRows) {
            if (!sameTest(r, named_))
                continue;
            const Values v = r.probe();
            const std::string what = std::string(r.figure) + " " +
                                     r.quantity + ": paper " + r.paper +
                                     ", bound " + formatBound(r.bound);
            EXPECT_FALSE(v.empty()) << what << ", nothing measured";
            for (std::size_t i = 0; i < v.size(); ++i)
                EXPECT_TRUE(r.bound.contains(v[i]))
                    << what << ", measured " << v[i] << " at point "
                    << i + 1 << " of " << v.size();
        }
    }

  private:
    const Row &named_;
};

// One test per name, registered by the first row that carries it.
[[maybe_unused]] const bool registered = [] {
    for (const Row &row : kRows) {
        if (std::any_of(kRows, &row,
                        [&](const Row &r) { return sameTest(r, row); }))
            continue;
        ::testing::RegisterTest(row.suite, row.name, nullptr, nullptr,
                                __FILE__, __LINE__,
                                [&row]() -> ::testing::Test * {
                                    return new RowTest(row);
                                });
    }
    return true;
}();

} // namespace
