#include "mr/shuffle.h"

#include <algorithm>
#include <queue>

#include "common/prof_counters.h"

namespace ysmart {

namespace {

/// Three-way (key, source) comparison via the cached normalized key.
inline int raw_compare(const KeyValue& a, const KeyValue& b) {
  prof::count(prof::kRawKeyCompares);
  const int c = norm_key_compare(a.norm_key, b.norm_key);
  if (c != 0) return c;
  return static_cast<int>(a.source) - static_cast<int>(b.source);
}

}  // namespace

void sort_map_bucket(std::vector<KeyValue>& bucket) {
  std::sort(bucket.begin(), bucket.end(),
            [](const KeyValue& a, const KeyValue& b) {
              const int c = raw_compare(a, b);
              if (c != 0) return c < 0;
              return a.seq < b.seq;
            });
}

std::vector<KeyValue> merge_sorted_runs(
    const std::vector<std::vector<KeyValue>*>& runs) {
  struct Cursor {
    std::size_t run;
    std::size_t pos;
  };
  std::size_t total = 0;
  std::vector<std::size_t> live;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r] || runs[r]->empty()) continue;
    total += runs[r]->size();
    live.push_back(r);
  }
  std::vector<KeyValue> out;
  out.reserve(total);
  if (live.size() == 1) {
    out = std::move(*runs[live[0]]);
    runs[live[0]]->clear();
    return out;
  }

  // Min-heap: smallest (key, source, run index) on top.
  auto greater = [&](const Cursor& a, const Cursor& b) {
    const int c = raw_compare((*runs[a.run])[a.pos], (*runs[b.run])[b.pos]);
    if (c != 0) return c > 0;
    return a.run > b.run;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap(
      greater);
  for (std::size_t r : live) heap.push(Cursor{r, 0});
  while (!heap.empty()) {
    const Cursor c = heap.top();
    heap.pop();
    auto& run = *runs[c.run];
    out.push_back(std::move(run[c.pos]));
    if (c.pos + 1 < run.size()) heap.push(Cursor{c.run, c.pos + 1});
  }
  for (std::size_t r : live) runs[r]->clear();
  return out;
}

}  // namespace ysmart
