//===- perfbench/src/Fleet.h - Three-server replicated mesh ----*- C++ -*-===//
//
// The exchange the two loop workloads drive: three PatchServers, each with
// a StateStore in its own directory, served over Unix sockets and meshed
// by ReplicaSets.  Everything lives under one directory of the run's
// private scratch directory and is removed when the fleet is torn down;
// no TCP port is bound, so concurrent runs cannot collide.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FLEET_H
#define PERFBENCH_FLEET_H

#include "exchange/PatchClient.h"
#include "exchange/PatchServer.h"
#include "exchange/Replication.h"
#include "exchange/SocketTransport.h"
#include "exchange/StateStore.h"

#include <memory>
#include <string>

namespace perfbench {

class Fleet {
public:
  static constexpr unsigned Size = 3;

  /// Builds and starts the mesh under \p Directory (created; must be new).
  explicit Fleet(const std::string &Directory);
  ~Fleet();
  Fleet(const Fleet &) = delete;
  Fleet &operator=(const Fleet &) = delete;

  /// False when any server failed to attach its state or to listen.
  bool ok() const { return Ok; }
  exterminator::PatchServer &server(unsigned I) { return *Servers[I]; }
  /// A client of server \p I over its socket (one per server).
  exterminator::PatchClient &client(unsigned I) { return *Clients[I]; }

  /// Streams every queued replication record and runs anti-entropy until
  /// the three active sets serialize identically; returns those bytes, or
  /// an empty vector when they never converge.
  std::vector<uint8_t> settle();

private:
  std::string Dir;
  bool Ok = true;
  std::unique_ptr<exterminator::StateStore> Stores[Size];
  std::unique_ptr<exterminator::PatchServer> Servers[Size];
  std::unique_ptr<exterminator::SocketPatchServer> Fronts[Size];
  std::unique_ptr<exterminator::ReplicaSet> Replicas[Size];
  std::unique_ptr<exterminator::SocketClientTransport> Links[Size];
  std::unique_ptr<exterminator::PatchClient> Clients[Size];
};

} // namespace perfbench

#endif // PERFBENCH_FLEET_H
