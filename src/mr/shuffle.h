// The shuffle's sort/merge/group primitives, shared by the engine and
// bench/bench_shuffle.cpp.
//
// Every key comparison on this path runs over the normalized key cached
// in KeyValue::norm_key (common/normkey.h): one memcmp instead of a
// cell-by-cell walk through std::variant dispatch — Hadoop's
// RawComparator optimization. The encoding is order-preserving, so the
// order is exactly kv_less's (mr/keyvalue.h), the cell-by-cell
// reference that tests/test_shuffle.cpp pins sort, merge and grouping
// against.
//
// Partitioning hashes the normalized key bytes (one hash over the
// cached encoding, computed once per pair).
#pragma once

#include <cstddef>
#include <vector>

#include "common/normkey.h"
#include "common/prof_counters.h"
#include "mr/keyvalue.h"

namespace ysmart {

/// Reduce partition for a pair: FNV-1a over the cached normalized key.
inline std::size_t shuffle_partition(const KeyValue& kv,
                                     std::size_t num_partitions) {
  return static_cast<std::size_t>(norm_key_hash(kv.norm_key)) % num_partitions;
}

/// Map-side sort of one partition bucket: plain std::sort over the
/// explicit (key, source, seq) tuple. seq is the bucket-local emit
/// index, so the result is exactly what stable_sort(kv_less) produces —
/// deterministically, without stable_sort's allocation.
void sort_map_bucket(std::vector<KeyValue>& bucket);

/// K-way merge of already-sorted runs (one per map task, in map-task
/// order; null/empty runs allowed). Ties on (key, source) break by run
/// index, then by the runs' internal seq order — exactly the order of
/// concatenating in task order and stable-sorting. Consumes the runs
/// (moved-from, then cleared).
std::vector<KeyValue> merge_sorted_runs(
    const std::vector<std::vector<KeyValue>*>& runs);

/// Key equality for reduce-group detection: byte equality of the cached
/// normalized keys. Equal keys encode identically, so this agrees with
/// compare_rows(a.key, b.key) == 0.
inline bool same_shuffle_key(const KeyValue& a, const KeyValue& b) {
  prof::count(prof::kRawKeyCompares);
  return a.norm_key == b.norm_key;
}

}  // namespace ysmart
