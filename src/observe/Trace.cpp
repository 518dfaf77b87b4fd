//===- Trace.cpp ----------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "observe/Trace.h"

#include "observe/Json.h"
#include "observe/Profile.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace jackee;
using namespace jackee::observe;

namespace {

/// Per-thread stack of open spans, shared across tracers (a thread can be
/// inside spans of several tracers at once — e.g. a test harness tracing a
/// session that owns its own tracer). Parent lookup scans from the top for
/// the innermost entry of the asking tracer.
thread_local std::vector<std::pair<const Tracer *, uint32_t>> OpenStack;

} // namespace

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

uint32_t Tracer::beginSpan(std::string_view Name, std::string_view Category,
                           uint32_t ParentOverride) {
  uint32_t Parent = ParentOverride;
  if (Parent == NoSpan)
    for (auto It = OpenStack.rbegin(); It != OpenStack.rend(); ++It)
      if (It->first == this) {
        Parent = It->second;
        break;
      }

  uint32_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Id = static_cast<uint32_t>(Spans.size());
    SpanRecord &S = Spans.emplace_back();
    S.Name = Name;
    S.Category = Category;
    S.Parent = Parent;
    S.ThreadId =
        ThreadIds.emplace(std::this_thread::get_id(),
                          static_cast<uint32_t>(ThreadIds.size()))
            .first->second;
    S.StartUs = nowUs();
  }
  OpenStack.emplace_back(this, Id);
  return Id;
}

void Tracer::endSpan(uint32_t Id) {
  // Normally the span being closed is the top of the thread's stack; the
  // scan tolerates out-of-order destruction (moved-from guards).
  for (auto It = OpenStack.rbegin(); It != OpenStack.rend(); ++It)
    if (It->first == this && It->second == Id) {
      OpenStack.erase(std::next(It).base());
      break;
    }
  std::string Name, Category;
  double DurationUs = 0;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(Id < Spans.size() && "ending an unknown span");
    SpanRecord &S = Spans[Id];
    S.DurationUs = nowUs() - S.StartUs;
    S.Open = false;
    if (Events) {
      Name = S.Name;
      Category = S.Category;
      DurationUs = S.DurationUs;
    }
  }
  // Mirror the closed span into the JSONL log outside the tracer lock (the
  // sink has its own).
  if (Events && !Name.empty())
    Events->event("span")
        .str("name", Name)
        .str("cat", Category)
        .num("dur_us", DurationUs);
}

void Tracer::addArg(uint32_t Id, std::string_view Key, std::string_view Value,
                    bool Quoted) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(Id < Spans.size() && "arg on an unknown span");
  Spans[Id].Args.push_back(
      {std::string(Key), std::string(Value), Quoted});
}

std::vector<Tracer::SpanRecord> Tracer::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

namespace {

/// Children lists per span, plus the roots, in recording order.
struct SpanTree {
  std::vector<Tracer::SpanRecord> Spans;
  std::vector<std::vector<uint32_t>> Children;
  std::vector<uint32_t> Roots;
};

SpanTree buildTree(const Tracer &T) {
  SpanTree Tree;
  Tree.Spans = T.snapshot();
  Tree.Children.resize(Tree.Spans.size());
  for (uint32_t I = 0; I != Tree.Spans.size(); ++I) {
    uint32_t Parent = Tree.Spans[I].Parent;
    if (Parent == Tracer::NoSpan)
      Tree.Roots.push_back(I);
    else
      Tree.Children[Parent].push_back(I);
  }
  return Tree;
}

/// Renders one node and its descendants; sibling subtrees are sorted by
/// rendered text so any cross-thread interleaving serializes the same way.
std::string renderStructureNode(const SpanTree &Tree, uint32_t Id,
                                unsigned Depth) {
  const Tracer::SpanRecord &S = Tree.Spans[Id];
  std::string Out(2 * Depth, ' ');
  Out += S.Name;
  Out += " [";
  Out += S.Category;
  Out += ']';
  for (const Tracer::Arg &A : S.Args) {
    Out += ' ';
    Out += A.Key;
    Out += '=';
    Out += A.Value;
  }
  Out += '\n';
  std::vector<std::string> Rendered;
  for (uint32_t Child : Tree.Children[Id])
    Rendered.push_back(renderStructureNode(Tree, Child, Depth + 1));
  std::sort(Rendered.begin(), Rendered.end());
  for (const std::string &R : Rendered)
    Out += R;
  return Out;
}

} // namespace

std::string jackee::observe::renderStructure(const Tracer &T) {
  SpanTree Tree = buildTree(T);
  std::vector<std::string> Rendered;
  for (uint32_t Root : Tree.Roots)
    Rendered.push_back(renderStructureNode(Tree, Root, 0));
  std::sort(Rendered.begin(), Rendered.end());
  std::string Out;
  for (const std::string &R : Rendered)
    Out += R;
  return Out;
}

namespace {

/// Aggregation node for the flame summary: same-name siblings merged.
struct FlameNode {
  uint64_t Count = 0;
  double TotalUs = 0;
  double ChildUs = 0;
  std::map<std::string, FlameNode> Children;
};

void aggregate(const SpanTree &Tree, uint32_t Id, FlameNode &Into) {
  const Tracer::SpanRecord &S = Tree.Spans[Id];
  FlameNode &N = Into.Children[S.Name];
  N.Count += 1;
  N.TotalUs += S.DurationUs;
  Into.ChildUs += S.DurationUs;
  for (uint32_t Child : Tree.Children[Id])
    aggregate(Tree, Child, N);
}

void renderFlameNode(std::ostringstream &Out, const FlameNode &N,
                     const std::string &Name, double ParentUs,
                     unsigned Depth) {
  double SelfUs = std::max(0.0, N.TotalUs - N.ChildUs);
  char Row[192];
  std::string Label(2 * Depth, ' ');
  Label += Name;
  std::snprintf(Row, sizeof(Row), "  %-44s %7llu %10.4f %10.4f %6.1f%%\n",
                Label.c_str(), static_cast<unsigned long long>(N.Count),
                N.TotalUs / 1e6, SelfUs / 1e6,
                ParentUs > 0 ? 100.0 * N.TotalUs / ParentUs : 100.0);
  Out << Row;
  // Hottest children first; name-tiebreak keeps the order total.
  std::vector<const std::pair<const std::string, FlameNode> *> Kids;
  for (const auto &Entry : N.Children)
    Kids.push_back(&Entry);
  std::sort(Kids.begin(), Kids.end(), [](const auto *A, const auto *B) {
    if (A->second.TotalUs != B->second.TotalUs)
      return A->second.TotalUs > B->second.TotalUs;
    return A->first < B->first;
  });
  for (const auto *Kid : Kids)
    renderFlameNode(Out, Kid->second, Kid->first, N.TotalUs, Depth + 1);
}

} // namespace

std::string jackee::observe::renderFlame(const Tracer &T) {
  SpanTree Tree = buildTree(T);
  FlameNode Root;
  for (uint32_t R : Tree.Roots)
    aggregate(Tree, R, Root);

  std::ostringstream Out;
  Out << "span summary (" << Tree.Spans.size() << " spans):\n";
  char Header[192];
  std::snprintf(Header, sizeof(Header), "  %-44s %7s %10s %10s %7s\n",
                "span", "count", "total(s)", "self(s)", "parent");
  Out << Header;
  std::vector<const std::pair<const std::string, FlameNode> *> Roots;
  for (const auto &Entry : Root.Children)
    Roots.push_back(&Entry);
  std::sort(Roots.begin(), Roots.end(), [](const auto *A, const auto *B) {
    if (A->second.TotalUs != B->second.TotalUs)
      return A->second.TotalUs > B->second.TotalUs;
    return A->first < B->first;
  });
  for (const auto *R : Roots)
    renderFlameNode(Out, R->second, R->first, R->second.TotalUs, 0);
  return Out.str();
}

std::string jackee::observe::writeChromeTrace(const Tracer &T) {
  std::vector<Tracer::SpanRecord> Spans = T.snapshot();
  // Stable on-disk order: by (thread, start, name). Chrome/Perfetto accept
  // any order, but deterministic-ish files diff better.
  std::vector<uint32_t> Order(Spans.size());
  for (uint32_t I = 0; I != Spans.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    const Tracer::SpanRecord &L = Spans[A], &R = Spans[B];
    if (L.ThreadId != R.ThreadId)
      return L.ThreadId < R.ThreadId;
    if (L.StartUs != R.StartUs)
      return L.StartUs < R.StartUs;
    return A < B;
  });

  std::ostringstream Out;
  Out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool First = true;
  char Buf[64];
  for (uint32_t I : Order) {
    const Tracer::SpanRecord &S = Spans[I];
    Out << (First ? "\n" : ",\n") << "    {\"name\": " << jsonQuote(S.Name)
        << ", \"cat\": " << jsonQuote(S.Category)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << S.ThreadId;
    std::snprintf(Buf, sizeof(Buf), "%.3f", S.StartUs);
    Out << ", \"ts\": " << Buf;
    std::snprintf(Buf, sizeof(Buf), "%.3f", S.DurationUs);
    Out << ", \"dur\": " << Buf;
    if (!S.Args.empty()) {
      Out << ", \"args\": {";
      for (size_t A = 0; A != S.Args.size(); ++A) {
        const Tracer::Arg &Arg = S.Args[A];
        Out << (A ? ", " : "") << jsonQuote(Arg.Key) << ": "
            << (Arg.Quoted ? jsonQuote(Arg.Value) : jsonEscape(Arg.Value));
      }
      Out << "}";
    }
    Out << "}";
    First = false;
  }
  Out << "\n  ]\n}\n";
  return Out.str();
}
