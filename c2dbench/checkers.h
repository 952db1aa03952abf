// Output checkers. Each compares what the program showed or stored against
// a record the benchmark kept itself (the writer's ledger of acknowledged
// values, the values written at set-up), never against the program's own
// view of its state. --selftest feeds each one a corrupted observation.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace c2d {

/// Outcome of one check: how many items disagreed and the first of them.
struct CheckReport {
  uint64_t mismatches = 0;
  std::string first;
  bool ok() const { return mismatches == 0; }
  void Note(const std::string& what);
};

/// Per (view, link): the value a view shows never goes back in the
/// writer's sequence. Each view is observed by one thread; a view's slots
/// are only touched by that thread.
class MonotonicChecker {
 public:
  MonotonicChecker(int views, size_t links);
  /// Records `value` shown by `view` for `link`; false on a regression.
  bool Observe(int view, size_t link, double value);
  CheckReport Report() const;

 private:
  size_t links_;
  std::vector<double> last_;  ///< views * links, -inf until first seen
  mutable std::mutex mu_;
  CheckReport report_;
};

/// Every key of `expected` is in `observed` with exactly that value.
CheckReport CheckValues(const std::string& what,
                        const std::unordered_map<uint64_t, double>& expected,
                        const std::unordered_map<uint64_t, double>& observed);

/// An opened view holds exactly one display object per link (`shown` is one
/// (source oid, displayed value) pair per display object), and each shows
/// the expected value.
CheckReport CheckViewContents(
    const std::string& what, const std::vector<uint64_t>& links,
    const std::vector<std::pair<uint64_t, double>>& shown,
    const std::unordered_map<uint64_t, double>& expected);

/// Feeds each checker a clean and a corrupted observation; returns the
/// number of checkers that did not behave (0 = all pass clean input and
/// fail corrupted input). Prints one line per case to stderr.
int SelfTestCheckers();

}  // namespace c2d
