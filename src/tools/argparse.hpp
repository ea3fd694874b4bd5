#pragma once
// Strict flag handling shared by the command-line drivers. Two layers:
//
//  * numeric parsing helpers — a value that is not fully numeric ("0x",
//    "abc", "12 34") is a usage error that exits 2 with a message, never a
//    silent 0;
//  * ArgCursor — a uniform argv walker giving every tool the same UX
//    contract: "--flag value" and "--flag=value" are equivalent, a value
//    glued onto a boolean switch ("--ecc=1") is a usage error, a missing
//    value exits 2, and unknown flags are reported via unknown_flag()
//    (stderr, exit 2). --help goes to stdout with exit 0 and --version
//    reports the common version stamp; both are handled per tool.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mlp::tools {

/// One version stamp for the whole toolchain; every binary's --version
/// reports it so a sweep script can assert client/daemon compatibility.
inline constexpr char kVersionString[] = "0.4.0";

inline void print_version(const char* tool) {
  std::printf("%s (millipede-sim) %s\n", tool, kVersionString);
}

/// Uniform unknown-flag report: stderr + exit status 2 (returned so mains
/// can `return tools::unknown_flag(...)`).
inline int unknown_flag(const std::string& flag) {
  std::fprintf(stderr, "unknown option %s (try --help)\n", flag.c_str());
  return 2;
}

/// argv walker with uniform "--flag value" / "--flag=value" handling.
///
///   tools::ArgCursor args(argc, argv);
///   while (args.next()) {
///     if (args.is("--rows")) rows = parse_u64(args.flag(), args.value());
///     else if (args.is("--ecc")) ecc = true;
///     else return tools::unknown_flag(args.flag());
///   }
class ArgCursor {
 public:
  ArgCursor(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advance to the next flag; false when argv is exhausted. Exits 2 if the
  /// previous flag carried an inline "=value" that no one consumed (a value
  /// glued onto a boolean switch, e.g. "--ecc=1").
  bool next() {
    if (inline_value_ && !inline_consumed_) {
      std::fprintf(stderr, "%s does not take a value\n", flag_.c_str());
      std::exit(2);
    }
    if (++index_ >= argc_) return false;
    const std::string arg = argv_[index_];
    inline_value_ = false;
    inline_consumed_ = false;
    std::string::size_type eq = std::string::npos;
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-') {
      eq = arg.find('=');
    }
    if (eq != std::string::npos) {
      flag_ = arg.substr(0, eq);
      value_ = arg.substr(eq + 1);
      inline_value_ = true;
    } else {
      flag_ = arg;
      value_.clear();
    }
    return true;
  }

  const std::string& flag() const { return flag_; }
  bool is(const char* name) const { return flag_ == name; }

  /// The flag's value: the inline "=value" or the next argv element. Exits 2
  /// when neither exists.
  std::string value() {
    if (inline_value_) {
      inline_consumed_ = true;
      return value_;
    }
    if (index_ + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s\n", flag_.c_str());
      std::exit(2);
    }
    return argv_[++index_];
  }

 private:
  int argc_;
  char** argv_;
  int index_ = 0;
  std::string flag_;
  std::string value_;
  bool inline_value_ = false;
  bool inline_consumed_ = false;
};

[[noreturn]] inline void flag_error(const std::string& flag,
                                    const std::string& text,
                                    const char* expected) {
  std::fprintf(stderr, "%s expects %s, got \"%s\"\n", flag.c_str(), expected,
               text.c_str());
  std::exit(2);
}

/// Unsigned decimal integer; false unless the whole string parses.
inline bool parse_unsigned(const std::string& text, u64* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return !text.empty() && end == text.c_str() + text.size() && errno == 0 &&
         text[0] != '-';
}

/// Floating-point number; false unless the whole string parses.
inline bool parse_real(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && errno == 0;
}

/// Unsigned integer; the whole string must parse. `min` rejects e.g. 0.
inline u64 parse_u64(const std::string& flag, const std::string& text,
                     u64 min = 0) {
  u64 value = 0;
  if (!parse_unsigned(text, &value) || value < min) {
    flag_error(flag, text,
               min > 0 ? "a positive integer" : "a non-negative integer");
  }
  return value;
}

inline u32 parse_u32(const std::string& flag, const std::string& text,
                     u32 min = 0) {
  const u64 value = parse_u64(flag, text, min);
  if (value > 0xffffffffull) flag_error(flag, text, "a 32-bit integer");
  return static_cast<u32>(value);
}

/// Render a name list one entry per line — the --list-arches /
/// --list-benches output contract shared by mlpsim and mlpsweep, kept
/// grep/xargs-friendly (no header, no indentation, trailing newline).
inline std::string name_list_lines(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    out += name;
    out += '\n';
  }
  return out;
}

/// Split "a,b,c" into non-empty elements; an empty element is a usage error.
inline std::vector<std::string> split_list(const std::string& flag,
                                           const std::string& text) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= text.size()) {
    const std::string::size_type comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (item.empty()) flag_error(flag, text, "a comma-separated list");
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace mlp::tools
