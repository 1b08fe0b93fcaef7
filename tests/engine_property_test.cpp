// Parameterized property sweeps: operation accounting must reconcile for
// every (engine, thread count, operation mix, key range) combination, and
// for HCF under every class policy of a fixed menu (§2.1: configuration
// changes performance, never results). This is the broad-coverage net over
// the per-engine suites.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.hpp"
#include "mem/ebr.hpp"
#include "util/rng.hpp"

namespace hcf::test {
namespace {

using Table = ds::HashTable<std::uint64_t, std::uint64_t>;

struct SweepParam {
  const char* engine;
  int threads;
  int find_pct;
  std::uint64_t key_range;
  // Both hash-table classes run this policy; unset runs ht_paper_config().
  std::optional<core::PhasePolicy> policy = std::nullopt;
};

std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
  os << p.engine << "_t" << p.threads << "_f" << p.find_pct << "_k"
     << p.key_range;
  if (p.policy) {
    os << "_p" << p.policy->try_private << "_" << p.policy->try_visible << "_"
       << p.policy->try_combining << (p.policy->announce ? "_on" : "_off");
  }
  return os;
}

class EngineSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweepTest, AccountingReconciles) {
  const SweepParam p = GetParam();
  Table table(p.key_range);
  std::vector<bool> initially_present(p.key_range, false);
  for (std::uint64_t k = 0; k < p.key_range; k += 2) {
    table.insert(k, k * 2 + 1);
    initially_present[k] = true;
  }
  auto classes = adapters::ht_paper_config();
  if (p.policy) {
    for (auto& cc : classes) cc.policy = *p.policy;
  }
  core::visit_engine(
      p.engine, table, classes, adapters::kHtNumArrays, [&](auto& engine) {
        const int ops_per_thread = 24000 / p.threads;
        std::vector<std::vector<std::int64_t>> net(p.threads);
        std::vector<std::thread> threads;
        for (int t = 0; t < p.threads; ++t) {
          net[t].assign(p.key_range, 0);
          threads.emplace_back([&, t] {
            util::Xoshiro256 rng(40000 + t);
            adapters::HtFindOp<std::uint64_t, std::uint64_t> find;
            adapters::HtInsertOp<std::uint64_t, std::uint64_t> insert;
            adapters::HtRemoveOp<std::uint64_t, std::uint64_t> remove;
            for (int i = 0; i < ops_per_thread; ++i) {
              const std::uint64_t key = rng.next_bounded(p.key_range);
              const int roll = static_cast<int>(rng.next_bounded(100));
              if (roll < p.find_pct) {
                find.set(key);
                engine.execute(find);
                if (find.result().has_value()) {
                  ASSERT_EQ(*find.result(), key * 2 + 1);
                }
              } else if (roll < p.find_pct + (100 - p.find_pct) / 2) {
                insert.set(key, key * 2 + 1);
                engine.execute(insert);
                if (insert.result()) ++net[t][key];
              } else {
                remove.set(key);
                engine.execute(remove);
                if (remove.result()) --net[t][key];
              }
            }
          });
        }
        for (auto& th : threads) th.join();

        for (std::uint64_t k = 0; k < p.key_range; ++k) {
          std::int64_t expected = initially_present[k] ? 1 : 0;
          for (int t = 0; t < p.threads; ++t) expected += net[t][k];
          ASSERT_TRUE(expected == 0 || expected == 1) << "key " << k;
          ASSERT_EQ(table.contains(k), expected == 1) << "key " << k;
        }
        EXPECT_TRUE(table.check_invariants());
        EXPECT_EQ(engine.stats().total(),
                  static_cast<std::uint64_t>(p.threads) * ops_per_thread);
      });
  mem::EbrDomain::instance().drain();
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  for (const char* engine :
       {"Lock", "TLE", "SCM", "FC", "TLE+FC", "HCF", "HCF-1C"}) {
    for (int threads : {1, 2, 4}) {
      for (int find_pct : {0, 40, 90}) {
        // Tiny range for contention, larger for parallelism.
        for (std::uint64_t range : {std::uint64_t{16}, std::uint64_t{1024}}) {
          params.push_back({engine, threads, find_pct, range});
        }
      }
    }
  }
  return params;
}

// HCF with each policy fixed for both classes at construction: the paper's
// default, combine-only, private-heavy, and flat combining.
std::vector<SweepParam> policy_params() {
  std::vector<SweepParam> params;
  for (const core::PhasePolicy& policy :
       {core::PhasePolicy::paper_default(), core::PhasePolicy{0, 0, 10, true},
        core::PhasePolicy{8, 1, 1, true}, core::PhasePolicy::fc_like()}) {
    for (int threads : {1, 2, 4}) {
      for (int find_pct : {0, 40}) {
        for (std::uint64_t range : {std::uint64_t{16}, std::uint64_t{1024}}) {
          params.push_back({"HCF", threads, find_pct, range, policy});
        }
      }
    }
  }
  return params;
}

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::ostringstream os;
  os << info.param;
  std::string s = os.str();
  for (char& c : s) {
    if (c == '+' || c == '-') c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllEnginesMixesThreads, EngineSweepTest,
                         ::testing::ValuesIn(sweep_params()), param_name);
INSTANTIATE_TEST_SUITE_P(HcfPolicies, EngineSweepTest,
                         ::testing::ValuesIn(policy_params()), param_name);

}  // namespace
}  // namespace hcf::test
