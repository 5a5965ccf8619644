//===- perfbench/src/Fleet.cpp - Three-server replicated mesh ---------------===//

#include "Fleet.h"

#include "patch/PatchIO.h"

#include <filesystem>

using namespace exterminator;
using namespace perfbench;

namespace {
/// Anti-entropy timer; streaming is woken per record, so this only
/// bounds how long a lost record could hide.
constexpr unsigned AntiEntropyMs = 1000;
} // namespace

Fleet::Fleet(const std::string &Directory) : Dir(Directory) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  Endpoint Eps[Size];
  for (unsigned I = 0; I < Size; ++I) {
    const std::string Name = Dir + "/s" + std::to_string(I);
    Stores[I] = std::make_unique<StateStore>(Name + ".state");
    Servers[I] = std::make_unique<PatchServer>();
    Ok &= Servers[I]->attachState(*Stores[I]);
    Fronts[I] = std::make_unique<SocketPatchServer>(*Servers[I]);
    Eps[I].Family = Endpoint::Unix;
    Eps[I].Path = Name + ".sock";
    Ok &= Fronts[I]->listen(Eps[I]) && Fronts[I]->start();
  }
  for (unsigned I = 0; I < Size; ++I) {
    Replicas[I] = std::make_unique<ReplicaSet>(*Servers[I]);
    for (unsigned J = 0; J < Size; ++J)
      if (J != I)
        Replicas[I]->addPeer(Eps[J]);
    Replicas[I]->start(AntiEntropyMs);
    Links[I] = std::make_unique<SocketClientTransport>(Eps[I]);
    Clients[I] = std::make_unique<PatchClient>(*Links[I]);
  }
}

Fleet::~Fleet() {
  for (auto &R : Replicas)
    if (R)
      R->stop();
  for (auto &F : Fronts)
    if (F)
      F->stop();
  for (unsigned I = 0; I < Size; ++I) {
    Clients[I].reset();
    Links[I].reset();
    Replicas[I].reset();
    Fronts[I].reset();
    Servers[I].reset();
    Stores[I].reset();
  }
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

std::vector<uint8_t> Fleet::settle() {
  for (unsigned Round = 0; Round < 8; ++Round) {
    for (auto &R : Replicas)
      R->drainOnce();
    const std::vector<uint8_t> Bytes =
        serializePatchSet(Servers[0]->snapshot().Patches);
    bool Same = true;
    for (unsigned I = 1; I < Size; ++I)
      Same &= serializePatchSet(Servers[I]->snapshot().Patches) == Bytes;
    if (Same)
      return Bytes;
    for (auto &R : Replicas)
      R->antiEntropyOnce();
  }
  return {};
}
