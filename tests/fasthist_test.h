#ifndef FASTHIST_TESTS_FASTHIST_TEST_H_
#define FASTHIST_TESTS_FASTHIST_TEST_H_

// Minimal single-header test framework (no external dependencies): each
// TEST(name) registers itself; the main below runs every registered test,
// or only those named on the command line (which is how CMake registers
// one ctest entry per case).  `--list` prints the registered names, one
// per line; the <binary>.registration_sync ctest entry diffs that output
// against the case list in tests/CMakeLists.txt, so a TEST added without
// its ctest line (or vice versa) fails the suite instead of silently
// riding along in the catch-all run.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fasthist {
namespace testing {

struct TestCase {
  const char* name;
  std::function<void()> fn;
};

inline std::vector<TestCase>& Registry() {
  static std::vector<TestCase> registry;
  return registry;
}

struct Registrar {
  Registrar(const char* name, std::function<void()> fn) {
    Registry().push_back({name, std::move(fn)});
  }
};

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Lowercase hex of a byte string, two digits per byte: how tests pin exact
// wire bytes, so a codec that changes a byte order fails by name.
inline std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(2 * bytes.size());
  for (const uint8_t byte : bytes) {
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

[[noreturn]] inline void FailCheck(const char* file, int line,
                                   const std::string& what) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer), "%s:%d: %s", file, line, what.c_str());
  throw Failure(buffer);
}

}  // namespace testing
}  // namespace fasthist

#define TEST(name)                                                       \
  static void Test_##name();                                             \
  static ::fasthist::testing::Registrar registrar_##name(#name,          \
                                                         &Test_##name);  \
  static void Test_##name()

#define CHECK(condition)                                                  \
  do {                                                                    \
    if (!(condition)) {                                                   \
      ::fasthist::testing::FailCheck(__FILE__, __LINE__,                  \
                                     "CHECK failed: " #condition);        \
    }                                                                     \
  } while (0)

#define CHECK_NEAR(a, b, tolerance)                                       \
  do {                                                                    \
    const double check_near_a = (a);                                      \
    const double check_near_b = (b);                                      \
    const double check_near_tol = (tolerance);                            \
    if (!(std::abs(check_near_a - check_near_b) <= check_near_tol)) {     \
      char check_near_buf[256];                                           \
      std::snprintf(check_near_buf, sizeof(check_near_buf),               \
                    "CHECK_NEAR failed: %s=%g vs %s=%g (tol %g)", #a,     \
                    check_near_a, #b, check_near_b, check_near_tol);      \
      ::fasthist::testing::FailCheck(__FILE__, __LINE__, check_near_buf); \
    }                                                                     \
  } while (0)

#define CHECK_OK(expression)                                              \
  do {                                                                    \
    const auto& check_ok_result = (expression);                           \
    if (!check_ok_result.ok()) {                                          \
      ::fasthist::testing::FailCheck(                                     \
          __FILE__, __LINE__,                                             \
          std::string("CHECK_OK failed: " #expression ": ") +             \
              check_ok_result.status().message());                        \
    }                                                                     \
  } while (0)

int main(int argc, char** argv) {
  using ::fasthist::testing::Registry;
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    for (const auto& test : Registry()) std::printf("%s\n", test.name);
    return 0;
  }
  int failures = 0;
  int executed = 0;
  for (const auto& test : Registry()) {
    bool selected = argc <= 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], test.name) == 0) selected = true;
    }
    if (!selected) continue;
    ++executed;
    try {
      test.fn();
      std::printf("[ PASS ] %s\n", test.name);
    } catch (const std::exception& e) {
      std::printf("[ FAIL ] %s\n         %s\n", test.name, e.what());
      ++failures;
    }
  }
  if (executed == 0) {
    std::printf("[ FAIL ] no test matched the given names\n");
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

#endif  // FASTHIST_TESTS_FASTHIST_TEST_H_
