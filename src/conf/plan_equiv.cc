#include "src/conf/plan_equiv.h"

#include <algorithm>
#include <charconv>

#include "src/conf/conf_agent.h"

namespace zebra {

namespace {

// Joiner between trace elements. '\x1e' (record separator) cannot appear in
// entity names, parameter names, or schema values, so joining is injective.
constexpr char kTraceJoin = '\x1e';

constexpr std::string_view kHasPrefix = "@h:";
constexpr std::string_view kUncertainPrefix = "@u:";

// The node index as every element writes it, rendered into `buffer`.
std::string_view RenderNodeIndex(int node_index, char (&buffer)[16]) {
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), node_index);
  (void)ec;  // an int always fits
  return std::string_view(buffer, static_cast<size_t>(end - buffer));
}

// Every element renderer goes through these two appenders, and the
// restriction check parses with their inverse (ParseTraceElement below), so
// the recorder (ConfAgent), the predictor and the check cannot drift. The
// head is "<prefix>E#i:p"; the tail is "=v" for a plan-served value, "!"
// otherwise.
void AppendObservationHead(std::string* out, std::string_view prefix,
                           std::string_view entity, int node_index,
                           std::string_view param) {
  char index[16];
  out->append(prefix);
  out->append(entity);
  *out += '#';
  out->append(RenderNodeIndex(node_index, index));
  *out += ':';
  out->append(param);
}

void AppendObservationTail(std::string* out, const std::string* assigned) {
  if (assigned != nullptr) {
    *out += '=';
    *out += *assigned;
  } else {
    *out += '!';
  }
}

void FormatObservation(std::string* out, std::string_view prefix,
                       std::string_view entity, int node_index,
                       std::string_view param, const std::string* assigned) {
  out->clear();
  AppendObservationHead(out, prefix, entity, node_index, param);
  AppendObservationTail(out, assigned);
}

}  // namespace

void TraceReadElement(std::string* out, std::string_view entity, int node_index,
                      std::string_view param, const std::string* assigned) {
  FormatObservation(out, "", entity, node_index, param, assigned);
}

void TraceHasElement(std::string* out, std::string_view entity, int node_index,
                     std::string_view param, const std::string* assigned) {
  FormatObservation(out, kHasPrefix, entity, node_index, param, assigned);
}

void TraceUncertainElement(std::string* out, std::string_view param) {
  out->assign(kUncertainPrefix);
  out->append(param);
}

std::string TraceReadElement(std::string_view entity, int node_index,
                             std::string_view param, const std::string* assigned) {
  std::string element;
  TraceReadElement(&element, entity, node_index, param, assigned);
  return element;
}

std::string TraceHasElement(std::string_view entity, int node_index,
                            std::string_view param, const std::string* assigned) {
  std::string element;
  TraceHasElement(&element, entity, node_index, param, assigned);
  return element;
}

std::string TraceUncertainElement(std::string_view param) {
  std::string element;
  TraceUncertainElement(&element, param);
  return element;
}

namespace {

// Shared element parser (inverse of FormatObservation). Entity names never
// contain '#', the node index is digits, and parameter names never contain
// '=' — so the first '#', the first ':' after it, and the first '=' after
// that are unambiguous separators even when the served value contains any of
// those characters.
struct ParsedElement {
  enum class Kind { kRead, kHas, kUncertain } kind = Kind::kRead;
  std::string_view entity;
  std::string_view index_text;  // the node index's digits as written
  int node_index = 0;
  std::string_view param;
  bool has_value = false;  // "=v" tail (a plan-served value), else "!"
  std::string_view value;
};

// Fills `parsed` with views into `element`, allocating nothing. Fails on a
// node index that is not an int.
bool ParseTraceElement(std::string_view element, ParsedElement* parsed) {
  if (element.rfind(kUncertainPrefix, 0) == 0) {
    parsed->kind = ParsedElement::Kind::kUncertain;
    parsed->param = element.substr(kUncertainPrefix.size());
    return true;
  }
  if (element.rfind(kHasPrefix, 0) == 0) {
    parsed->kind = ParsedElement::Kind::kHas;
    element.remove_prefix(kHasPrefix.size());
  } else {
    parsed->kind = ParsedElement::Kind::kRead;
  }
  size_t hash = element.find('#');
  if (hash == std::string_view::npos) {
    return false;
  }
  size_t colon = element.find(':', hash);
  if (colon == std::string_view::npos) {
    return false;
  }
  parsed->entity = element.substr(0, hash);
  parsed->index_text = element.substr(hash + 1, colon - hash - 1);
  const char* index_end = parsed->index_text.data() + parsed->index_text.size();
  auto [end, ec] = std::from_chars(parsed->index_text.data(), index_end,
                                   parsed->node_index);
  if (ec != std::errc() || end != index_end) {
    return false;
  }
  std::string_view rest = element.substr(colon + 1);
  size_t eq = rest.find('=');
  parsed->has_value = eq != std::string_view::npos;
  if (parsed->has_value) {
    parsed->param = rest.substr(0, eq);
    parsed->value = rest.substr(eq + 1);
  } else {
    if (rest.empty() || rest.back() != '!') {
      return false;
    }
    parsed->param = rest.substr(0, rest.size() - 1);
  }
  return true;
}

}  // namespace

bool PlanMatchesElement(const TestPlan& plan, std::string_view element) {
  ParsedElement parsed;
  if (!ParseTraceElement(element, &parsed)) {
    return false;  // unparseable = unknown observation; never collapse
  }
  if (parsed.kind == ParsedElement::Kind::kUncertain) {
    return true;  // uncertain confs never receive overrides: plan-invariant
  }
  // Re-deriving the element under this plan reproduces its prefix, entity
  // and parameter verbatim, so it matches exactly when the node index is
  // written as AppendObservationHead writes it and the tail is the one this
  // plan serves.
  char index[16];
  if (parsed.index_text != RenderNodeIndex(parsed.node_index, index)) {
    return false;
  }
  const std::string* assigned =
      plan.Lookup(parsed.param, parsed.entity, parsed.node_index);
  if (assigned == nullptr) {
    return !parsed.has_value;
  }
  return parsed.has_value && parsed.value == *assigned;
}

bool PlanReproducesObservedTrace(const TestPlan& plan,
                                 std::string_view observed_trace,
                                 std::string_view predicted_trace) {
  // Both traces are sorted element lists, so a single merge scan finds each
  // observed element's verbatim twin in the promise when it has one.
  size_t predicted_pos = 0;
  size_t observed_pos = 0;
  while (observed_pos < observed_trace.size()) {
    size_t observed_end = observed_trace.find(kTraceJoin, observed_pos);
    if (observed_end == std::string_view::npos) {
      observed_end = observed_trace.size();
    }
    std::string_view element =
        observed_trace.substr(observed_pos, observed_end - observed_pos);
    bool found = false;
    while (predicted_pos < predicted_trace.size()) {
      size_t predicted_end = predicted_trace.find(kTraceJoin, predicted_pos);
      if (predicted_end == std::string_view::npos) {
        predicted_end = predicted_trace.size();
      }
      std::string_view candidate =
          predicted_trace.substr(predicted_pos, predicted_end - predicted_pos);
      if (candidate < element) {
        predicted_pos = predicted_end + 1;
        continue;
      }
      if (candidate == element) {
        found = true;
        predicted_pos = predicted_end + 1;
      }
      break;
    }
    if (!found && !PlanMatchesElement(plan, element)) {
      return false;
    }
    observed_pos = observed_end + 1;
  }
  return true;
}

std::string ObservedTraceText(const SessionReport& report) {
  size_t size = 0;
  for (const std::string& element : report.trace_elements) {
    size += element.size() + 1;
  }
  std::string text;
  text.reserve(size);
  for (const std::string& element : report.trace_elements) {
    if (!text.empty()) {
      text += kTraceJoin;
    }
    text += element;
  }
  return text;
}

// ---------------------------------------------------------------------------
// ReadSurface
// ---------------------------------------------------------------------------

ReadSurface::ReadSurface(const SessionReport& prerun) {
  for (const std::string& element : prerun.trace_elements) {
    ParsedElement parsed;
    if (!ParseTraceElement(element, &parsed)) {
      continue;  // malformed element; ignore (surface stays conservative)
    }
    Observation obs;
    obs.entity = std::string(parsed.entity);
    obs.node_index = parsed.node_index;
    obs.param = std::string(parsed.param);
    switch (parsed.kind) {
      case ParsedElement::Kind::kUncertain:
        obs.kind = Observation::Kind::kUncertain;
        obs.head = TraceUncertainElement(obs.param);
        break;
      case ParsedElement::Kind::kHas:
        obs.kind = Observation::Kind::kHas;
        AppendObservationHead(&obs.head, kHasPrefix, obs.entity, obs.node_index,
                              obs.param);
        presence_params_.insert(obs.param);
        break;
      case ParsedElement::Kind::kRead:
        obs.kind = Observation::Kind::kRead;
        AppendObservationHead(&obs.head, "", obs.entity, obs.node_index,
                              obs.param);
        break;
    }
    observed_params_.insert(obs.param);
    head_bytes_ += obs.head.size();
    observations_.push_back(std::move(obs));
  }
  usable_ = !observations_.empty();
}

CanonicalPlan ReadSurface::Canonicalize(const TestPlan& plan) const {
  CanonicalPlan canonical;
  // Each surviving entry's fingerprint, minus the overrides no targeted conf
  // reads, is rendered once into one buffer; the canonical fingerprint is
  // those renderings sorted and joined exactly as TestPlan::Fingerprint()
  // joins a plan's entries.
  struct Kept {
    const std::string* param;
    size_t begin;
    size_t size;
  };
  std::string rendered;
  std::vector<Kept> kept;
  kept.reserve(plan.params().size());
  auto observed = [this](const std::string& param) { return ParamObserved(param); };
  for (const ParamPlan& entry : plan.params()) {
    bool keeps_override = false;
    for (const auto& override_pair : entry.extra_overrides) {
      if (ParamObserved(override_pair.first)) {
        keeps_override = true;
      } else {
        ++canonical.dropped_overrides;
      }
    }
    // An entry survives if any targeted conf observes its parameter — or any
    // surviving dependency override still needs a carrier.
    if (!ParamObserved(entry.param) && !keeps_override) {
      ++canonical.dropped_entries;
      continue;
    }
    size_t begin = rendered.size();
    entry.AppendFingerprint(&rendered, observed);
    kept.push_back(Kept{&entry.param, begin, rendered.size() - begin});
  }
  auto view = [&rendered](const Kept& entry) {
    return std::string_view(rendered).substr(entry.begin, entry.size);
  };
  // Canonical order: plans differing only in entry order collapse.
  std::sort(kept.begin(), kept.end(), [&](const Kept& a, const Kept& b) {
    if (*a.param != *b.param) {
      return *a.param < *b.param;
    }
    return view(a) < view(b);
  });
  canonical.fingerprint.reserve(rendered.size() + 2 * kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) {
      canonical.fingerprint += ", ";
    }
    canonical.fingerprint += view(kept[i]);
  }
  canonical.changed = canonical.fingerprint != plan.Fingerprint();
  return canonical;
}

bool ReadSurface::PredictTrace(const TestPlan& plan, std::string* trace) const {
  // Every element is rendered into one buffer — the observation's
  // precomputed head plus this plan's tail — and sorted and deduplicated as
  // spans, reproducing exactly the order and dedup the recorder's
  // SessionReport::trace_elements set applies (this runs on every cache miss
  // past the exact keys).
  struct Span {
    size_t begin;
    size_t size;
  };
  std::string rendered;
  // Heads plus a short tail each; a long served value only costs a regrow.
  rendered.reserve(head_bytes_ + 8 * observations_.size());
  std::vector<Span> spans;
  spans.reserve(observations_.size());
  for (const Observation& obs : observations_) {
    size_t begin = rendered.size();
    rendered += obs.head;
    switch (obs.kind) {
      case Observation::Kind::kUncertain:
        // Unmappable confs never receive overrides: plan-invariant marker.
        break;
      case Observation::Kind::kRead:
      case Observation::Kind::kHas:
        // Has() ignores overrides, but its element is poisoned with the
        // plan's assignment so a plan targeting a presence-checked parameter
        // never aliases one that assigns it differently (conservative).
        AppendObservationTail(&rendered,
                              plan.Lookup(obs.param, obs.entity, obs.node_index));
        break;
    }
    spans.push_back(Span{begin, rendered.size() - begin});
  }
  auto view = [&rendered](const Span& span) {
    return std::string_view(rendered).substr(span.begin, span.size);
  };
  std::sort(spans.begin(), spans.end(),
            [&](const Span& a, const Span& b) { return view(a) < view(b); });
  spans.erase(std::unique(spans.begin(), spans.end(),
                          [&](const Span& a, const Span& b) {
                            return view(a) == view(b);
                          }),
              spans.end());
  trace->clear();
  trace->reserve(rendered.size() + spans.size());
  for (const Span& span : spans) {
    if (!trace->empty()) {
      *trace += kTraceJoin;
    }
    *trace += view(span);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scoped global surface
// ---------------------------------------------------------------------------

namespace {
thread_local const ReadSurface* g_read_surface = nullptr;
}  // namespace

void SetGlobalReadSurface(const ReadSurface* surface) { g_read_surface = surface; }

const ReadSurface* GlobalReadSurface() { return g_read_surface; }

}  // namespace zebra
