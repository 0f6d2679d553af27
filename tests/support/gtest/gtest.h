// Minimal GoogleTest-compatible shim, used only when neither a system
// GoogleTest nor FetchContent is available (offline builds).  It implements
// the subset of the gtest API this repository's tests use:
//
//   TEST / TEST_F / TEST_P + INSTANTIATE_TEST_SUITE_P
//   testing::Values / ValuesIn / Range / Combine, TestParamInfo name
//   generators
//   EXPECT_/ASSERT_ comparison macros, EXPECT_NEAR / EXPECT_DOUBLE_EQ,
//   EXPECT_THROW / EXPECT_NO_THROW, GTEST_SKIP, << message streaming
//
// Semantics follow gtest: EXPECT_* records a failure and continues,
// ASSERT_* returns from the enclosing function, GTEST_SKIP() in SetUp or a
// test body marks the test skipped.  Arguments are evaluated exactly once.
//
// Not implemented: death tests, typed tests, matchers, --gtest_* flags.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace otf_gtest {

// ---------------------------------------------------------------------------
// Per-test result state and the global registry (defined in gtest_shim.cpp).
// ---------------------------------------------------------------------------
struct TestResult {
    int failures = 0;
    bool fatal = false;
    bool skipped = false;
};

TestResult& current_result();

struct RegisteredTest {
    std::string suite;
    std::string name;
    // Factory only: construction, SetUp/TestBody/TearDown sequencing and
    // exception handling live in the runner (gtest_shim.cpp).
    std::function<void*()> make; // returns a testing::Test*
};

std::vector<RegisteredTest>& registry();
int register_test(const char* suite, const char* name,
                  std::function<void*()> make);
int run_all_tests();

// ---------------------------------------------------------------------------
// Value printing: stream when the type supports it, placeholder otherwise.
// ---------------------------------------------------------------------------
template <class T, class = void>
struct is_streamable : std::false_type {};
template <class T>
struct is_streamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                             << std::declval<const T&>())>>
    : std::true_type {};

template <class T>
std::string print_value(const T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (is_streamable<T>::value) {
        std::ostringstream os;
        os << v;
        return os.str();
    } else {
        return "<value of unprintable type>";
    }
}

// ---------------------------------------------------------------------------
// Comparison helpers.  Each returns ok + a gtest-style message; the macros
// evaluate their operands exactly once by passing them through here.
// ---------------------------------------------------------------------------
struct CmpResult {
    bool ok;
    std::string message;
};

template <class A, class B>
CmpResult cmp_eq(const char* as, const char* bs, const A& a, const B& b)
{
    if (a == b) {
        return {true, {}};
    }
    return {false, std::string("Expected equality of these values:\n  ") + as
                       + "\n    Which is: " + print_value(a) + "\n  " + bs
                       + "\n    Which is: " + print_value(b)};
}

#define OTF_GTEST_DEFINE_CMP_(fn, op)                                        \
    template <class A, class B>                                              \
    CmpResult fn(const char* as, const char* bs, const A& a, const B& b)     \
    {                                                                        \
        if (a op b) {                                                        \
            return {true, {}};                                               \
        }                                                                    \
        return {false, std::string("Expected: (") + as + ") " #op " (" + bs  \
                           + "), actual: " + print_value(a) + " vs "         \
                           + print_value(b)};                                \
    }

OTF_GTEST_DEFINE_CMP_(cmp_ne, !=)
OTF_GTEST_DEFINE_CMP_(cmp_lt, <)
OTF_GTEST_DEFINE_CMP_(cmp_le, <=)
OTF_GTEST_DEFINE_CMP_(cmp_gt, >)
OTF_GTEST_DEFINE_CMP_(cmp_ge, >=)
#undef OTF_GTEST_DEFINE_CMP_

inline CmpResult check_bool(const char* expr, bool value, bool expected)
{
    if (value == expected) {
        return {true, {}};
    }
    return {false, std::string("Value of: ") + expr + "\n  Actual: "
                       + (value ? "true" : "false")
                       + "\nExpected: " + (expected ? "true" : "false")};
}

inline CmpResult cmp_near(const char* as, const char* bs, double a, double b,
                          double tol)
{
    const double diff = std::fabs(a - b);
    if (diff <= tol) {
        return {true, {}};
    }
    return {false, std::string("The difference between ") + as + " and " + bs
                       + " is " + print_value(diff) + ", which exceeds "
                       + print_value(tol) + ", where\n" + as
                       + " evaluates to " + print_value(a) + ",\n" + bs
                       + " evaluates to " + print_value(b)};
}

inline CmpResult cmp_streq(const char* as, const char* bs, const char* a,
                           const char* b)
{
    const bool ok = (a == nullptr || b == nullptr)
        ? a == b
        : std::strcmp(a, b) == 0;
    if (ok) {
        return {true, {}};
    }
    // Built with += rather than operator+ on a temporary: GCC 12 at -O3
    // flags the inlined insert() path with a spurious -Werror=restrict.
    const auto quote = [](const char* s) {
        if (s == nullptr) {
            return std::string("NULL");
        }
        std::string quoted = "\"";
        quoted += s;
        quoted += '"';
        return quoted;
    };
    return {false, std::string("Expected equality of these values:\n  ") + as
                       + "\n    Which is: " + quote(a) + "\n  " + bs
                       + "\n    Which is: " + quote(b)};
}

// 4-ULP comparison, mirroring gtest's AlmostEquals for doubles.
inline bool almost_equal(double a, double b)
{
    if (std::isnan(a) || std::isnan(b)) {
        return false;
    }
    if (a == b) {
        return true;
    }
    std::int64_t ia = 0;
    std::int64_t ib = 0;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    // Map the sign-magnitude representation onto a monotonic biased scale.
    const auto bias = [](std::int64_t i) {
        return i < 0 ? std::int64_t(0x8000000000000000ULL) - i : i;
    };
    const std::int64_t d = bias(ia) - bias(ib);
    return d >= -4 && d <= 4;
}

inline CmpResult cmp_double_eq(const char* as, const char* bs, double a,
                               double b)
{
    if (almost_equal(a, b)) {
        return {true, {}};
    }
    return {false, std::string("Expected equality (within 4 ULPs) of:\n  ")
                       + as + "\n    Which is: " + print_value(a) + "\n  "
                       + bs + "\n    Which is: " + print_value(b)};
}

} // namespace otf_gtest

namespace testing {

// ---------------------------------------------------------------------------
// Message streaming + failure recording.
// ---------------------------------------------------------------------------
class Message {
public:
    Message() = default;
    template <class T>
    Message& operator<<(const T& value)
    {
        ss_ << value;
        return *this;
    }
    std::string str() const { return ss_.str(); }

private:
    std::ostringstream ss_;
};

namespace internal {

enum class FailKind { nonfatal, fatal, skip };

class AssertHelper {
public:
    AssertHelper(FailKind kind, const char* file, int line,
                 std::string summary)
        : kind_(kind), file_(file), line_(line), summary_(std::move(summary))
    {
    }

    // The streamed user message arrives as `helper = Message() << ...`.
    void operator=(const Message& message) const;

private:
    FailKind kind_;
    const char* file_;
    int line_;
    std::string summary_;
};

} // namespace internal

// ---------------------------------------------------------------------------
// Test base classes.
// ---------------------------------------------------------------------------
class Test {
public:
    virtual ~Test() = default;
    virtual void TestBody() = 0;
    virtual void SetUp() {}
    virtual void TearDown() {}
    /// True once the running test has recorded any failure.
    static bool HasFailure()
    {
        return otf_gtest::current_result().failures > 0;
    }
};

template <class T>
class WithParamInterface {
public:
    using ParamType = T;
    static const T& GetParam() { return *current_param(); }
    static const T*& current_param()
    {
        static const T* param = nullptr;
        return param;
    }
};

template <class T>
class TestWithParam : public Test, public WithParamInterface<T> {};

template <class T>
struct TestParamInfo {
    T param;
    std::size_t index;
};

// ---------------------------------------------------------------------------
// Parameter generators.  Each generator materializes into a vector of the
// fixture's ParamType at instantiation time, so heterogeneous literals
// (e.g. const char* for a std::string parameter) convert naturally.
// ---------------------------------------------------------------------------
template <class... Ts>
struct ValueList {
    std::tuple<Ts...> values;
    template <class P>
    std::vector<P> materialize() const
    {
        std::vector<P> out;
        out.reserve(sizeof...(Ts));
        std::apply([&](const auto&... v) { (out.push_back(P(v)), ...); },
                   values);
        return out;
    }
};

template <class... Ts>
ValueList<std::decay_t<Ts>...> Values(Ts&&... values)
{
    return {std::tuple<std::decay_t<Ts>...>(std::forward<Ts>(values)...)};
}

template <class T>
struct ValuesInGen {
    std::vector<T> values;
    template <class P>
    std::vector<P> materialize() const
    {
        return std::vector<P>(values.begin(), values.end());
    }
};

template <class Container>
ValuesInGen<typename Container::value_type> ValuesIn(const Container& c)
{
    return {std::vector<typename Container::value_type>(c.begin(), c.end())};
}

template <class T>
struct RangeGen {
    T first;
    T last;
    T step;
    template <class P>
    std::vector<P> materialize() const
    {
        std::vector<P> out;
        for (T v = first; v < last; v = static_cast<T>(v + step)) {
            out.push_back(P(v));
        }
        return out;
    }
};

template <class T>
RangeGen<T> Range(T first, T last)
{
    return {first, last, T(1)};
}

template <class T>
RangeGen<T> Range(T first, T last, T step)
{
    return {first, last, step};
}

template <class... Gens>
struct CombineGen {
    std::tuple<Gens...> gens;

    template <class P, std::size_t I, class Axes>
    void cartesian(const Axes& axes, P& cur, std::vector<P>& out) const
    {
        if constexpr (I == std::tuple_size_v<P>) {
            out.push_back(cur);
        } else {
            for (const auto& v : std::get<I>(axes)) {
                std::get<I>(cur) = v;
                cartesian<P, I + 1>(axes, cur, out);
            }
        }
    }

    template <class P>
    std::vector<P> materialize() const
    {
        return materialize_impl<P>(std::index_sequence_for<Gens...>{});
    }

    template <class P, std::size_t... Is>
    std::vector<P> materialize_impl(std::index_sequence<Is...>) const
    {
        auto axes = std::make_tuple(
            std::get<Is>(gens)
                .template materialize<std::tuple_element_t<Is, P>>()...);
        std::vector<P> out;
        P cur{};
        cartesian<P, 0>(axes, cur, out);
        return out;
    }
};

template <class... Gens>
CombineGen<std::decay_t<Gens>...> Combine(Gens&&... gens)
{
    return {std::tuple<std::decay_t<Gens>...>(std::forward<Gens>(gens)...)};
}

// ---------------------------------------------------------------------------
// TEST_P registration + instantiation.
// ---------------------------------------------------------------------------
namespace internal {

template <class Fixture>
struct ParamTestRegistry {
    struct Pattern {
        std::string name;
        std::function<::testing::Test*()> factory;
    };
    static std::vector<Pattern>& patterns()
    {
        static std::vector<Pattern> p;
        return p;
    }
    static int add(const char* name, std::function<::testing::Test*()> f)
    {
        patterns().push_back({name, std::move(f)});
        return 0;
    }
};

} // namespace internal

template <class Fixture, class Gen, class NameGen>
int InstantiateParamSuite(const char* prefix, const char* suite,
                          const Gen& gen, NameGen name_gen)
{
    using P = typename Fixture::ParamType;
    auto params =
        std::make_shared<std::vector<P>>(gen.template materialize<P>());
    const std::string full_suite = std::string(prefix) + "/" + suite;
    for (const auto& pattern :
         internal::ParamTestRegistry<Fixture>::patterns()) {
        for (std::size_t i = 0; i < params->size(); ++i) {
            const std::string name =
                pattern.name + "/"
                + name_gen(TestParamInfo<P>{(*params)[i], i});
            auto factory = pattern.factory;
            ::otf_gtest::register_test(
                full_suite.c_str(), name.c_str(),
                [factory, params, i]() -> void* {
                    WithParamInterface<P>::current_param() =
                        &(*params)[i];
                    return factory();
                });
        }
    }
    return 0;
}

template <class Fixture, class Gen>
int InstantiateParamSuite(const char* prefix, const char* suite,
                          const Gen& gen)
{
    using P = typename Fixture::ParamType;
    return InstantiateParamSuite<Fixture>(
        prefix, suite, gen,
        [](const TestParamInfo<P>& info) { return std::to_string(info.index); });
}

inline void InitGoogleTest(int* = nullptr, char** = nullptr) {}

} // namespace testing

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------
#define GTEST_TEST_CLASS_NAME_(suite, name) suite##_##name##_Test

#define OTF_GTEST_TEST_(suite, name, base)                                   \
    class GTEST_TEST_CLASS_NAME_(suite, name) : public base {                \
    public:                                                                  \
        void TestBody() override;                                            \
    };                                                                       \
    [[maybe_unused]] static const int otf_gtest_reg_##suite##_##name =       \
        ::otf_gtest::register_test(#suite, #name, []() -> void* {            \
            return static_cast<::testing::Test*>(                            \
                new GTEST_TEST_CLASS_NAME_(suite, name));                    \
        });                                                                  \
    void GTEST_TEST_CLASS_NAME_(suite, name)::TestBody()

#define TEST(suite, name) OTF_GTEST_TEST_(suite, name, ::testing::Test)
#define TEST_F(fixture, name) OTF_GTEST_TEST_(fixture, name, fixture)

#define TEST_P(fixture, name)                                                \
    class GTEST_TEST_CLASS_NAME_(fixture, name) : public fixture {           \
    public:                                                                  \
        void TestBody() override;                                            \
    };                                                                       \
    [[maybe_unused]] static const int otf_gtest_preg_##fixture##_##name =    \
        ::testing::internal::ParamTestRegistry<fixture>::add(                \
            #name, []() -> ::testing::Test* {                                \
                return new GTEST_TEST_CLASS_NAME_(fixture, name);            \
            });                                                              \
    void GTEST_TEST_CLASS_NAME_(fixture, name)::TestBody()

#define INSTANTIATE_TEST_SUITE_P(prefix, fixture, ...)                       \
    [[maybe_unused]] static const int otf_gtest_inst_##prefix##_##fixture =  \
        ::testing::InstantiateParamSuite<fixture>(#prefix, #fixture,         \
                                                  __VA_ARGS__)

// Failure emission.  The trailing `= ::testing::Message()` lets user code
// append a streamed message: EXPECT_EQ(a, b) << "context".
#define OTF_GTEST_NONFATAL_(summary)                                         \
    ::testing::internal::AssertHelper(                                       \
        ::testing::internal::FailKind::nonfatal, __FILE__, __LINE__,         \
        (summary)) = ::testing::Message()
#define OTF_GTEST_FATAL_(summary)                                            \
    return ::testing::internal::AssertHelper(                                \
               ::testing::internal::FailKind::fatal, __FILE__, __LINE__,     \
               (summary)) = ::testing::Message()

#define GTEST_SKIP()                                                         \
    return ::testing::internal::AssertHelper(                                \
               ::testing::internal::FailKind::skip, __FILE__, __LINE__,      \
               "Skipped") = ::testing::Message()

// Assertion core: evaluate via a CmpResult-returning expression, then fail
// through FAILMODE on mismatch.  The switch guard keeps dangling-else safe.
#define OTF_GTEST_AR_(expr, FAILMODE)                                        \
    switch (0)                                                               \
    case 0:                                                                  \
    default:                                                                 \
        if (::otf_gtest::CmpResult otf_gtest_ar = (expr); otf_gtest_ar.ok)   \
            ;                                                                \
        else                                                                 \
            FAILMODE(otf_gtest_ar.message)

#define EXPECT_EQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_eq(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define EXPECT_NE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_ne(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define EXPECT_LT(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_lt(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define EXPECT_LE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_le(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define EXPECT_GT(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_gt(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define EXPECT_GE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_ge(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define ASSERT_EQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_eq(#a, #b, (a), (b)), OTF_GTEST_FATAL_)
#define ASSERT_NE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_ne(#a, #b, (a), (b)), OTF_GTEST_FATAL_)
#define ASSERT_LT(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_lt(#a, #b, (a), (b)), OTF_GTEST_FATAL_)
#define ASSERT_LE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_le(#a, #b, (a), (b)), OTF_GTEST_FATAL_)
#define ASSERT_GT(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_gt(#a, #b, (a), (b)), OTF_GTEST_FATAL_)
#define ASSERT_GE(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_ge(#a, #b, (a), (b)), OTF_GTEST_FATAL_)

#define EXPECT_TRUE(c) OTF_GTEST_AR_(::otf_gtest::check_bool(#c, static_cast<bool>(c), true), OTF_GTEST_NONFATAL_)
#define EXPECT_FALSE(c) OTF_GTEST_AR_(::otf_gtest::check_bool(#c, static_cast<bool>(c), false), OTF_GTEST_NONFATAL_)
#define ASSERT_TRUE(c) OTF_GTEST_AR_(::otf_gtest::check_bool(#c, static_cast<bool>(c), true), OTF_GTEST_FATAL_)
#define ASSERT_FALSE(c) OTF_GTEST_AR_(::otf_gtest::check_bool(#c, static_cast<bool>(c), false), OTF_GTEST_FATAL_)

#define EXPECT_NEAR(a, b, tol) OTF_GTEST_AR_(::otf_gtest::cmp_near(#a, #b, (a), (b), (tol)), OTF_GTEST_NONFATAL_)
#define ASSERT_NEAR(a, b, tol) OTF_GTEST_AR_(::otf_gtest::cmp_near(#a, #b, (a), (b), (tol)), OTF_GTEST_FATAL_)
#define EXPECT_DOUBLE_EQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_double_eq(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define ASSERT_DOUBLE_EQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_double_eq(#a, #b, (a), (b)), OTF_GTEST_FATAL_)

#define EXPECT_STREQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_streq(#a, #b, (a), (b)), OTF_GTEST_NONFATAL_)
#define ASSERT_STREQ(a, b) OTF_GTEST_AR_(::otf_gtest::cmp_streq(#a, #b, (a), (b)), OTF_GTEST_FATAL_)

#define OTF_GTEST_THROW_RESULT_(statement, expected)                         \
    [&]() -> ::otf_gtest::CmpResult {                                        \
        try {                                                                \
            statement;                                                       \
        } catch (const expected&) {                                          \
            return {true, {}};                                               \
        } catch (...) {                                                      \
            return {false,                                                   \
                    "Expected: " #statement " throws " #expected             \
                    ".\n  Actual: it throws a different type."};             \
        }                                                                    \
        return {false, "Expected: " #statement " throws " #expected          \
                       ".\n  Actual: it throws nothing."};                   \
    }()

#define EXPECT_THROW(statement, expected) OTF_GTEST_AR_(OTF_GTEST_THROW_RESULT_(statement, expected), OTF_GTEST_NONFATAL_)
#define ASSERT_THROW(statement, expected) OTF_GTEST_AR_(OTF_GTEST_THROW_RESULT_(statement, expected), OTF_GTEST_FATAL_)

#define OTF_GTEST_NO_THROW_RESULT_(statement)                                \
    [&]() -> ::otf_gtest::CmpResult {                                        \
        try {                                                                \
            statement;                                                       \
        } catch (...) {                                                      \
            return {false, "Expected: " #statement                           \
                           " doesn't throw.\n  Actual: it throws."};         \
        }                                                                    \
        return {true, {}};                                                   \
    }()

#define EXPECT_NO_THROW(statement) OTF_GTEST_AR_(OTF_GTEST_NO_THROW_RESULT_(statement), OTF_GTEST_NONFATAL_)
#define ASSERT_NO_THROW(statement) OTF_GTEST_AR_(OTF_GTEST_NO_THROW_RESULT_(statement), OTF_GTEST_FATAL_)

#define ADD_FAILURE() OTF_GTEST_NONFATAL_("Failure")
#define FAIL() OTF_GTEST_FATAL_("Failure")
#define SUCCEED()                                                            \
    static_cast<void>(0)

#define RUN_ALL_TESTS() ::otf_gtest::run_all_tests()
