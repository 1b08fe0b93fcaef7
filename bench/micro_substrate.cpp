// Substrate microbenchmarks (google-benchmark): raw costs of the simulated
// HTM primitives, locks, publication array, and workload generators. These
// quantify the simulator's constant factors — useful context when reading
// the figure benchmarks' absolute numbers.
//
// Custom main (gbench_main.hpp, instead of benchmark_main) so this binary
// speaks the same machine-readable protocol as the figure benches.
#include <benchmark/benchmark.h>

#include "gbench_main.hpp"

#include "core/publication_array.hpp"
#include "mem/ebr.hpp"
#include "sim_htm/htm.hpp"
#include "sim_htm/txcell.hpp"
#include "sync/spinlock.hpp"
#include "sync/tx_lock.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

using namespace hcf;

void BM_TxnEmptyCommit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::attempt([] {}));
  }
}
BENCHMARK(BM_TxnEmptyCommit);

void BM_TxnReadOnly(benchmark::State& state) {
  static std::uint64_t data[64] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += htm::read(&data[i]);
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TxnReadOnly)->Arg(1)->Arg(8)->Arg(32);

void BM_TxnWrite(benchmark::State& state) {
  static std::uint64_t data[256] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      for (std::size_t i = 0; i < n; ++i) htm::write(&data[i], i);
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TxnWrite)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

// The write-set lookup workload: buffer n writes, then read each one back
// through the write buffer. With the linear-scan write set this was
// quadratic in n; the signature + index make it linear.
void BM_TxnReadAfterWrite(benchmark::State& state) {
  static std::uint64_t data[256] = {};
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    htm::attempt([&] {
      for (std::size_t i = 0; i < n; ++i) htm::write(&data[i], i);
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; ++i) sum += htm::read(&data[i]);
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_TxnReadAfterWrite)->Arg(8)->Arg(32)->Arg(128);

// Commit-path contention: every thread commits small disjoint write
// transactions (private padded slots, so no orec conflicts). What remains
// is the shared commit machinery — version clock and write-back counter.
void BM_TxnContendedCommit(benchmark::State& state) {
  static util::CacheAligned<std::uint64_t> slots[16];
  auto& slot = slots[static_cast<std::size_t>(state.thread_index()) & 15]
                   .value;
  for (auto _ : state) {
    htm::attempt([&] { htm::write(&slot, htm::read(&slot) + 1); });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnContendedCommit)->Threads(2)->Threads(4)->Threads(8);

// Read-mostly transactions next to an unrelated writer: thread 0 commits
// write transactions on a private word, the rest run 32-word read-only
// transactions over untouched data. The readers never notice the writer:
// a read extends its snapshot only when it sees a version past it.
void BM_TxnReadMostly(benchmark::State& state) {
  static std::uint64_t data[32] = {};
  static util::CacheAligned<std::uint64_t> writer_word;
  if (state.thread_index() == 0) {
    for (auto _ : state) {
      htm::attempt([&] {
        htm::write(&writer_word.value, htm::read(&writer_word.value) + 1);
      });
    }
  } else {
    for (auto _ : state) {
      htm::attempt([&] {
        std::uint64_t sum = 0;
        for (auto& d : data) sum += htm::read(&d);
        benchmark::DoNotOptimize(sum);
      });
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnReadMostly)->Threads(4);

void BM_UninstrumentedRead(benchmark::State& state) {
  static std::uint64_t data[64] = {};
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (auto& d : data) sum += htm::read(&d);  // no txn: plain path
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_UninstrumentedRead);

void BM_TxCellStrongStore(benchmark::State& state) {
  static htm::TxCell<std::uint64_t> cell{0};
  std::uint64_t v = 0;
  for (auto _ : state) cell.store(++v);
}
BENCHMARK(BM_TxCellStrongStore);

void BM_TxLockUncontended(benchmark::State& state) {
  static sync::TxLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_TxLockUncontended);

void BM_FairTxLockUncontended(benchmark::State& state) {
  static sync::FairTxLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_FairTxLockUncontended);

void BM_SpinLockUncontended(benchmark::State& state) {
  static sync::SpinLock lock;
  for (auto _ : state) {
    lock.lock();
    lock.unlock();
  }
}
BENCHMARK(BM_SpinLockUncontended);

void BM_EbrGuard(benchmark::State& state) {
  for (auto _ : state) {
    mem::Guard guard;
    benchmark::DoNotOptimize(&guard);
  }
}
BENCHMARK(BM_EbrGuard);

struct NullDs {};
struct NullOp : core::Operation<NullDs> {
  void run_seq(NullDs&) override {}
};

void BM_PubArrayAddRemove(benchmark::State& state) {
  static core::PublicationArray<NullDs> pa;
  NullOp op;
  for (auto _ : state) {
    pa.add(&op);
    pa.remove_strong();
  }
}
BENCHMARK(BM_PubArrayAddRemove);

void BM_ZipfDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  util::ZipfianGenerator zipf(16 * 1024, 0.9);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfDraw);

void BM_UniformDraw(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_bounded(16 * 1024));
}
BENCHMARK(BM_UniformDraw);

void BM_TxnConflictAbortCost(benchmark::State& state) {
  // Cost of a doomed transaction: subscribe to a held lock, abort.
  static sync::TxLock lock;
  lock.lock();
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::attempt([&] { lock.subscribe(); }));
  }
  lock.unlock();
}
BENCHMARK(BM_TxnConflictAbortCost);

void BM_TxnCommitConflictCost(benchmark::State& state) {
  // Cost of a conflict found at commit: the body buffers a write to a word
  // whose orec another owner holds, so orec acquisition fails and the
  // attempt returns without unwinding — the non-throwing twin of the
  // benchmark above.
  static std::uint64_t word = 0;
  auto& orec = htm::detail::orec_for(&word);
  const std::uint64_t ver = htm::detail::strong_lock_orec(orec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        htm::attempt([&] { htm::write(&word, std::uint64_t{1}); }));
  }
  htm::detail::strong_unlock_orec(orec, ver, /*bump=*/false);
}
BENCHMARK(BM_TxnCommitConflictCost);

}  // namespace

int main(int argc, char** argv) {
  return hcf::bench::gbench_main(argc, argv, "micro_substrate", "substrate");
}
