#include "checkers.h"

#include <cstdio>
#include <limits>

namespace c2d {

void CheckReport::Note(const std::string& what) {
  if (mismatches++ == 0) first = what;
}

MonotonicChecker::MonotonicChecker(int views, size_t links)
    : links_(links),
      last_(static_cast<size_t>(views) * links,
            -std::numeric_limits<double>::infinity()) {}

bool MonotonicChecker::Observe(int view, size_t link, double value) {
  double& last = last_[static_cast<size_t>(view) * links_ + link];
  if (value < last) {
    std::lock_guard<std::mutex> lock(mu_);
    report_.Note("view " + std::to_string(view) + " link " +
                 std::to_string(link) + " went back from " +
                 std::to_string(last) + " to " + std::to_string(value));
    return false;
  }
  last = value;
  return true;
}

CheckReport MonotonicChecker::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

CheckReport CheckValues(const std::string& what,
                        const std::unordered_map<uint64_t, double>& expected,
                        const std::unordered_map<uint64_t, double>& observed) {
  CheckReport report;
  for (const auto& [oid, value] : expected) {
    auto it = observed.find(oid);
    if (it == observed.end()) {
      report.Note(what + ": oid " + std::to_string(oid) + " missing");
    } else if (it->second != value) {
      report.Note(what + ": oid " + std::to_string(oid) + " holds " +
                  std::to_string(it->second) + ", expected " +
                  std::to_string(value));
    }
  }
  return report;
}

CheckReport CheckViewContents(
    const std::string& what, const std::vector<uint64_t>& links,
    const std::vector<std::pair<uint64_t, double>>& shown,
    const std::unordered_map<uint64_t, double>& expected) {
  CheckReport report;
  std::unordered_map<uint64_t, int> count;
  for (uint64_t oid : links) count[oid] = 0;
  for (const auto& [oid, value] : shown) {
    auto it = count.find(oid);
    if (it == count.end()) {
      report.Note(what + ": display object over unknown oid " +
                  std::to_string(oid));
      continue;
    }
    ++it->second;
    auto want = expected.find(oid);
    if (want == expected.end() || want->second != value) {
      report.Note(what + ": oid " + std::to_string(oid) + " shows " +
                  std::to_string(value));
    }
  }
  for (const auto& [oid, n] : count) {
    if (n != 1) {
      report.Note(what + ": oid " + std::to_string(oid) + " has " +
                  std::to_string(n) + " display objects");
    }
  }
  return report;
}

namespace {

int Expect(const char* name, bool clean_ok, bool corrupt_ok) {
  const bool good = clean_ok && !corrupt_ok;
  std::fprintf(stderr, "selftest %-40s clean=%s corrupted=%s -> %s\n", name,
               clean_ok ? "pass" : "FAIL", corrupt_ok ? "pass" : "FAIL",
               good ? "ok" : "BROKEN");
  return good ? 0 : 1;
}

}  // namespace

int SelfTestCheckers() {
  int broken = 0;
  {
    MonotonicChecker clean(2, 3), corrupt(2, 3);
    for (double v : {0.4, 1.0, 5.0, 5.0, 9.0}) clean.Observe(1, 2, v);
    // A view showing a value older than one it already showed.
    for (double v : {0.4, 1.0, 5.0, 3.0, 9.0}) corrupt.Observe(1, 2, v);
    broken += Expect("monotonic: view goes back in sequence",
                     clean.Report().ok(), corrupt.Report().ok());
  }
  {
    std::unordered_map<uint64_t, double> ledger{{11, 7}, {12, 9}, {13, 0.5}};
    std::unordered_map<uint64_t, double> recovered = ledger;
    std::unordered_map<uint64_t, double> lost = ledger;
    lost[12] = 4;  // the acknowledged 9 is missing; an older value survived
    std::unordered_map<uint64_t, double> absent = ledger;
    absent.erase(13);
    broken += Expect("ledger: recovered link lost acked value",
                     CheckValues("scan", ledger, recovered).ok(),
                     CheckValues("scan", ledger, lost).ok());
    broken += Expect("ledger: recovered link absent",
                     CheckValues("scan", ledger, recovered).ok(),
                     CheckValues("scan", ledger, absent).ok());
  }
  {
    std::vector<uint64_t> links{21, 22, 23};
    std::unordered_map<uint64_t, double> want{{21, 0.1}, {22, 0.2}, {23, 0.3}};
    std::vector<std::pair<uint64_t, double>> full{
        {21, 0.1}, {22, 0.2}, {23, 0.3}};
    std::vector<std::pair<uint64_t, double>> missing{{21, 0.1}, {23, 0.3}};
    std::vector<std::pair<uint64_t, double>> doubled{
        {21, 0.1}, {22, 0.2}, {22, 0.2}, {23, 0.3}};
    broken += Expect("view: display object missing",
                     CheckViewContents("view", links, full, want).ok(),
                     CheckViewContents("view", links, missing, want).ok());
    broken += Expect("view: display object duplicated",
                     CheckViewContents("view", links, full, want).ok(),
                     CheckViewContents("view", links, doubled, want).ok());
  }
  return broken;
}

}  // namespace c2d
