// Error handling primitives used across the ramr library.
//
// Following the C++ Core Guidelines (E.2, E.3) we throw exceptions for
// errors that callers can reasonably handle, and terminate via the
// always-on RAMR_REQUIRE check for contract violations that indicate a
// programming error. Bad input from outside the program is reported with
// RAMR_INPUT_CHECK, whose message is the plain text a user can act on.
// Hot-loop bounds checks use RAMR_DEBUG_ASSERT, which compiles away in
// release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace ramr::util {

/// Exception type thrown by all ramr components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void fail(const char* kind, const char* expr, const char* file,
                       int line, const std::string& message);
}  // namespace detail

}  // namespace ramr::util

/// Always-on contract check. Evaluates `expr`; on failure throws
/// ramr::util::Error with location information and the given message
/// (streamed, so `RAMR_REQUIRE(n > 0, "bad n: " << n)` works).
#define RAMR_REQUIRE(expr, msg)                                            \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream ramr_require_oss_;                                \
      ramr_require_oss_ << msg;                                            \
      ::ramr::util::detail::fail("requirement", #expr, __FILE__, __LINE__, \
                                 ramr_require_oss_.str());                 \
    }                                                                      \
  } while (false)

/// Unconditional failure with message.
#define RAMR_FAIL(msg)                                                   \
  do {                                                                   \
    std::ostringstream ramr_fail_oss_;                                   \
    ramr_fail_oss_ << msg;                                               \
    ::ramr::util::detail::fail("failure", "(unreachable)", __FILE__,     \
                               __LINE__, ramr_fail_oss_.str());          \
  } while (false)

/// Check on input from outside the program (a config file, a JSON
/// document). On failure throws ramr::util::Error carrying only the
/// streamed message: the failed expression and source location of
/// RAMR_REQUIRE mean nothing to whoever wrote the input.
#define RAMR_INPUT_CHECK(expr, msg)                \
  do {                                             \
    if (!(expr)) {                                 \
      RAMR_INPUT_FAIL(msg);                        \
    }                                              \
  } while (false)

/// Unconditional input error with message; see RAMR_INPUT_CHECK.
#define RAMR_INPUT_FAIL(msg)                           \
  do {                                                 \
    std::ostringstream ramr_input_oss_;                \
    ramr_input_oss_ << msg;                            \
    throw ::ramr::util::Error(ramr_input_oss_.str());  \
  } while (false)

/// Debug-only assertion for hot paths (bounds checks in array views and
/// kernels). Enabled unless NDEBUG is defined.
#ifdef NDEBUG
#define RAMR_DEBUG_ASSERT(expr) ((void)0)
#else
#define RAMR_DEBUG_ASSERT(expr)                                          \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::ramr::util::detail::fail("assertion", #expr, __FILE__, __LINE__, \
                                 "");                                    \
    }                                                                    \
  } while (false)
#endif
