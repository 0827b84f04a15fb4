#include "spans.hpp"

#include <ostream>

namespace perfbench {

std::int64_t HostTrace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               origin_)
      .count();
}

void HostTrace::open(std::string_view name, std::int64_t query) {
  Open o;
  o.name = std::string(name);
  o.begin_ns = now_ns();
  if (spans_.size() < kMaxStoredSpans) {
    HostSpan s;
    s.name = o.name;
    s.begin_ns = o.begin_ns;
    s.parent = stack_.empty() ? kNoParent : stack_.back().stored;
    s.query = query;
    o.stored = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(std::move(s));
  } else {
    ++dropped_;
  }
  stack_.push_back(std::move(o));
}

void HostTrace::close(std::uint64_t items) {
  const Open o = std::move(stack_.back());
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const auto dur = static_cast<double>(end - o.begin_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  SpanRollup& r = rollup_[o.name];
  ++r.count;
  r.items += items;
  r.total_ns += dur;
  r.self_ns += dur - o.child_ns;
  if (o.stored != kNoParent) {
    spans_[o.stored].end_ns = end;
    spans_[o.stored].items = items;
  }
}

void HostTrace::write_json(std::ostream& os, const std::string& extra) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"begin_ns\": " << s.begin_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": ";
    if (s.parent == kNoParent) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << ", \"query\": " << s.query << ", \"items\": " << s.items << "}";
  }
  os << "\n], \"spans_dropped\": " << dropped_ << ", \"rollup\": {";
  bool first = true;
  for (const auto& [name, r] : rollup_) {
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
       << r.count << ", \"items\": " << r.items
       << ", \"total_ns\": " << r.total_ns << ", \"self_ns\": " << r.self_ns
       << "}";
    first = false;
  }
  os << "\n}" << extra << "}\n";
}

}  // namespace perfbench
