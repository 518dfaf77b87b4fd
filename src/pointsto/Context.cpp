//===- Context.cpp --------------------------------------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//

#include "pointsto/Context.h"

#include <array>

using namespace jackee;
using namespace jackee::pointsto;

CtxId ContextTable::intern(SiteSpan Sites) {
  auto It = Lookup.find(Sites);
  if (It != Lookup.end())
    return CtxId(It->second);
  uint32_t Index = static_cast<uint32_t>(Contexts.size());
  Contexts.emplace_back(Sites.begin(), Sites.end());
  Lookup.emplace(Contexts.back(), Index);
  return CtxId(Index);
}

CtxId ContextTable::appendAndTruncate(CtxId Base, ir::AllocSiteId Extra,
                                      uint32_t Limit) {
  if (Limit == 0)
    return empty();
  // suffix(Base ++ [Extra], Limit): Base's last Limit - 1 sites, then Extra.
  const std::vector<ir::AllocSiteId> &BaseSeq = elements(Base);
  const size_t Keep = std::min<size_t>(BaseSeq.size(), Limit - 1);
  std::array<ir::AllocSiteId, 8> Buffer;
  if (Keep < Buffer.size()) {
    std::copy(BaseSeq.end() - Keep, BaseSeq.end(), Buffer.begin());
    Buffer[Keep] = Extra;
    return intern(SiteSpan(Buffer.data(), Keep + 1));
  }
  std::vector<ir::AllocSiteId> Seq(BaseSeq.end() - Keep, BaseSeq.end());
  Seq.push_back(Extra);
  return intern(Seq);
}

CtxId ContextTable::truncate(CtxId Base, uint32_t Limit) {
  const std::vector<ir::AllocSiteId> &BaseSeq = elements(Base);
  if (BaseSeq.size() <= Limit)
    return Base;
  return intern(SiteSpan(BaseSeq).last(Limit));
}
