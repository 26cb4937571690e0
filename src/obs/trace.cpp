#include "obs/trace.h"

#include <algorithm>

#include "common/json.h"
#include "common/strings.h"

namespace ysmart::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(std::string name, std::string category) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = std::move(name);
  s.category = std::move(category);
  s.wall_start_us = wall_now_us();
  open_.push_back(s.id);
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) {
    malformed_ = true;
    return;
  }
  if (open_.empty() || open_.back() != id) {
    malformed_ = true;
    // Still close it (and anything opened after it) so exports load.
    while (!open_.empty()) {
      Span& s = spans_[static_cast<std::size_t>(open_.back())];
      if (s.open()) s.wall_dur_us = wall_now_us() - s.wall_start_us;
      const bool was_target = open_.back() == id;
      open_.pop_back();
      if (was_target) break;
    }
    return;
  }
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.wall_dur_us = wall_now_us() - s.wall_start_us;
  open_.pop_back();
}

void Tracer::set_sim(int id, double start_s, double dur_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].sim_start_s = start_s;
  spans_[static_cast<std::size_t>(id)].sim_dur_s = dur_s;
}

void Tracer::arg(int id, std::string key, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(
      std::move(key), strf("%llu", static_cast<unsigned long long>(value)));
}

void Tracer::arg(int id, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                         strf("%.17g", value));
}

void Tracer::arg(int id, std::string key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(
      std::move(key), "\"" + json_escape(value) + "\"");
}

int Tracer::open_span() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.empty() ? -1 : open_.back();
}

int Tracer::child(int parent, std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = spans_.size(); i-- > 0;)
    if (spans_[i].parent == parent && spans_[i].name == name)
      return spans_[i].id;
  return -1;
}

double Tracer::sim_now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sim_now_s_;
}

void Tracer::set_sim_now(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  sim_now_s_ = seconds;
}

bool Tracer::well_formed() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (malformed_ || !open_.empty()) return false;
  for (const auto& s : spans_)
    if (s.open()) return false;
  return true;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_.clear();
  sim_now_s_ = 0;
  malformed_ = false;
}

namespace {

void emit_complete_event(JsonWriter& w, const Span& s, int pid, double ts_us,
                         double dur_us) {
  w.begin_object();
  w.kv("name", std::string_view(s.name));
  w.kv("cat", std::string_view(s.category));
  w.kv("ph", "X");
  w.kv("pid", pid);
  w.kv("tid", 1);
  w.kv("ts", ts_us);
  w.kv("dur", dur_us);
  if (!s.args.empty()) {
    w.key("args").begin_object();
    for (const auto& [k, v] : s.args) w.key(k).raw(v);
    w.end_object();
  }
  w.end_object();
}

void emit_process_name(JsonWriter& w, int pid, const char* name) {
  w.begin_object();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.key("args").begin_object().kv("name", name).end_object();
  w.end_object();
}

}  // namespace

std::string Tracer::chrome_json(TimeAxis axis) const {
  return chrome_json(axis, {});
}

std::string Tracer::chrome_json(
    TimeAxis axis, const std::vector<std::string>& extra_events) const {
  std::vector<Span> snap = spans();
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  const bool want_sim = axis != TimeAxis::Wall;
  const bool want_wall = axis != TimeAxis::Simulated;
  if (want_sim) emit_process_name(w, 1, "simulated cluster");
  if (want_wall) emit_process_name(w, 2, "host wall-clock");
  for (const auto& s : snap) {
    if (want_sim && s.has_sim())
      emit_complete_event(w, s, 1, s.sim_start_s * 1e6,
                          std::max(0.0, s.sim_dur_s) * 1e6);
    if (want_wall)
      emit_complete_event(w, s, 2, s.wall_start_us,
                          std::max(0.0, s.wall_dur_us));
  }
  // Pre-encoded extra events (each string one event object) — the
  // cluster view's per-node pid 3 tracks are simulated-axis data, so
  // they ride with the simulated export.
  if (want_sim)
    for (const auto& ev : extra_events) w.raw(ev);
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Tracer::analyze_tree() const {
  std::vector<Span> snap = spans();
  // Children of each span, in creation (= begin) order.
  std::vector<std::vector<int>> children(snap.size());
  std::vector<int> roots;
  for (const auto& s : snap) {
    if (s.parent < 0)
      roots.push_back(s.id);
    else
      children[static_cast<std::size_t>(s.parent)].push_back(s.id);
  }
  std::string out;
  auto render = [&](auto&& self, int id, int depth) -> void {
    const Span& s = snap[static_cast<std::size_t>(id)];
    out += std::string(static_cast<std::size_t>(depth) * 2, ' ');
    out += s.name;
    out += strf("  [%s]", s.category.c_str());
    if (s.has_sim()) out += strf("  sim=%.1fs", s.sim_dur_s);
    if (!s.open()) out += strf("  wall=%.1fms", s.wall_dur_us / 1000.0);
    for (const auto& [k, v] : s.args) out += strf("  %s=%s", k.c_str(), v.c_str());
    out += "\n";
    for (int c : children[static_cast<std::size_t>(id)]) self(self, c, depth + 1);
  };
  for (int r : roots) render(render, r, 0);
  return out;
}

}  // namespace ysmart::obs
