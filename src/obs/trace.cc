#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

namespace dmrpc::obs {

namespace {

/// Full JSON string escaping: quote, backslash, and control characters
/// (a raw newline or tab inside a span name would otherwise produce an
/// unparseable trace file).
void AppendEscaped(std::string* out, const std::string& s) {
  char buf[8];
  for (char c : s) {
    unsigned char uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (uc < 0x20) {
          std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

/// Structural check that `s` is one balanced JSON object, string-aware
/// (braces inside string literals don't count). The Chrome export emits
/// args verbatim only when this holds; anything else is wrapped as an
/// escaped string so a bad caller cannot corrupt the whole trace file.
bool LooksLikeJsonObject(const std::string& s) {
  if (s.empty() || s.front() != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control char inside a string literal
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0) return i + 1 == s.size();  // must end exactly here
    }
  }
  return false;
}

/// Emits `,"args":...` -- the args object verbatim when well-formed,
/// otherwise wrapped so the output stays valid JSON.
void AppendArgs(std::string* out, const std::string& args) {
  if (args.empty()) return;
  *out += ",\"args\":";
  if (LooksLikeJsonObject(args)) {
    *out += args;
  } else {
    *out += "{\"invalid_args\":\"";
    AppendEscaped(out, args);
    *out += "\"}";
  }
}

/// Splices `key:value` into an args object string ("" means no object
/// yet), keeping it a valid object.
void MergeArg(std::string* args, const std::string& key, uint64_t value) {
  std::string kv = "\"" + key + "\":" + std::to_string(value);
  if (args->empty()) {
    *args = "{" + kv + "}";
  } else if (LooksLikeJsonObject(*args)) {
    args->insert(args->size() - 1,
                 (*args == "{}" ? kv : "," + kv));
  }
  // Malformed caller-supplied args: leave untouched; the exporter wraps
  // them anyway.
}

}  // namespace

uint64_t Tracer::BeginSpanRecord(uint64_t trace_id, uint64_t parent_id,
                                 std::string cat, std::string name,
                                 TimeNs now, uint32_t track,
                                 std::string args) {
  if (!enabled_) return 0;
  if (Full()) {
    ++dropped_;
    return 0;
  }
  uint64_t id = next_id_++;
  TraceRecord rec;
  rec.phase = TracePhase::kSpanBegin;
  rec.time = now;
  rec.id = id;
  rec.trace_id = trace_id;
  rec.parent_id = parent_id;
  rec.track = track;
  rec.cat = std::move(cat);
  rec.name = std::move(name);
  rec.args = std::move(args);
  open_.emplace(id, records_.size());
  records_.push_back(std::move(rec));
  return id;
}

uint64_t Tracer::BeginSpan(std::string cat, std::string name, TimeNs now,
                           uint32_t track, std::string args) {
  return BeginSpanRecord(0, 0, std::move(cat), std::move(name), now, track,
                         std::move(args));
}

uint64_t Tracer::BeginSpan(const TraceContext& ctx, std::string cat,
                           std::string name, TimeNs now, uint32_t track,
                           std::string args) {
  return BeginSpanRecord(ctx.trace_id, ctx.span_id, std::move(cat),
                         std::move(name), now, track, std::move(args));
}

void Tracer::EndSpan(uint64_t id, TimeNs now) {
  if (id == 0) return;  // disabled or dropped at begin
  auto it = open_.find(id);
  if (it == open_.end()) return;  // already ended, or Clear()ed
  TraceRecord& begin = records_[it->second];
  auto copied = open_copied_.find(id);
  if (copied != open_copied_.end()) {
    // Fold attributed copies into the begin record, which is where the
    // analyzer and the Chrome export read a span's args.
    MergeArg(&begin.args, "copied", copied->second);
    open_copied_.erase(copied);
  }
  TraceRecord rec;
  rec.phase = TracePhase::kSpanEnd;
  rec.time = now;
  rec.id = id;
  rec.trace_id = begin.trace_id;
  rec.parent_id = begin.parent_id;
  rec.track = begin.track;
  rec.cat = begin.cat;
  rec.name = begin.name;
  open_.erase(it);
  if (Full()) {
    // Record the end even at the limit so no span leaks open; only new
    // begins/instants are shed.
    ++dropped_;
  }
  records_.push_back(std::move(rec));
}

void Tracer::AttributeBytesCopied(uint64_t id, uint64_t n) {
  if (id == 0 || n == 0) return;
  if (open_.find(id) == open_.end()) return;
  open_copied_[id] += n;
}

void Tracer::AttributeSpanArg(uint64_t id, const std::string& key,
                              uint64_t value) {
  if (id == 0) return;
  auto it = open_.find(id);
  if (it == open_.end()) return;
  MergeArg(&records_[it->second].args, key, value);
}

void Tracer::Instant(std::string cat, std::string name, TimeNs now,
                     uint32_t track, std::string args) {
  Instant(TraceContext{}, std::move(cat), std::move(name), now, track,
          std::move(args));
}

void Tracer::Instant(const TraceContext& ctx, std::string cat,
                     std::string name, TimeNs now, uint32_t track,
                     std::string args) {
  if (!enabled_) return;
  if (Full()) {
    ++dropped_;
    return;
  }
  TraceRecord rec;
  rec.time = now;
  rec.trace_id = ctx.trace_id;
  rec.parent_id = ctx.span_id;
  rec.track = track;
  rec.cat = std::move(cat);
  rec.name = std::move(name);
  rec.args = std::move(args);
  records_.push_back(std::move(rec));
}

void Tracer::Clear() {
  records_.clear();
  open_.clear();
  open_copied_.clear();
  dropped_ = 0;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  // Pair span ends with their begins so spans can be emitted as complete
  // ("X") events, which viewers render without needing balanced B/E
  // streams per thread.
  std::unordered_map<uint64_t, TimeNs> end_time;
  TimeNs last = 0;
  for (const TraceRecord& r : records_) {
    if (r.time > last) last = r.time;
    if (r.phase == TracePhase::kSpanEnd) end_time.emplace(r.id, r.time);
  }

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const TraceRecord& r : records_) {
    if (r.phase == TracePhase::kSpanEnd) continue;  // folded into "X"
    if (!first) os << ",";
    first = false;
    std::string ev = "{\"pid\":0,\"tid\":" + std::to_string(r.track);
    // Chrome timestamps are microseconds; keep ns precision fractionally.
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", r.time / 1000,
                  static_cast<int>(r.time % 1000));
    ev += ",\"ts\":";
    ev += buf;
    if (r.phase == TracePhase::kSpanBegin) {
      auto it = end_time.find(r.id);
      // A span still open at export time extends to the last event.
      TimeNs dur = (it != end_time.end() ? it->second : last) - r.time;
      std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", dur / 1000,
                    static_cast<int>(dur % 1000));
      ev += ",\"ph\":\"X\",\"dur\":";
      ev += buf;
    } else {
      ev += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    ev += ",\"cat\":\"";
    AppendEscaped(&ev, r.cat);
    ev += "\",\"name\":\"";
    AppendEscaped(&ev, r.name);
    ev += "\"";
    // Causal identity rides in args so the viewer can group/filter by
    // trace; splice into the caller's args object when one exists.
    std::string args = r.args;
    if (r.id != 0) MergeArg(&args, "span", r.id);
    if (r.parent_id != 0) MergeArg(&args, "parent", r.parent_id);
    if (r.trace_id != 0) MergeArg(&args, "trace", r.trace_id);
    AppendArgs(&ev, args);
    ev += "}";
    os << ev;
  }
  // Trailing metadata event: a viewer (or a human) can tell a truncated
  // trace from a complete one.
  if (!first) os << ",";
  os << "{\"pid\":0,\"tid\":0,\"ph\":\"M\",\"name\":\"trace_metadata\","
        "\"args\":{\"dropped\":"
     << dropped_ << "}}";
  os << "]}\n";
}

}  // namespace dmrpc::obs
