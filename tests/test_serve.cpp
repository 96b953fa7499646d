// The serving layer: SessionManager scheduling/eviction/quotas, the
// wire protocol's typed-error guarantees, and the socket framing.
//
// The load-bearing claims:
//   * eviction to the spool and restore-on-touch are bit-exact against
//     an unevicted twin engine (the checkpoint payload is the
//     backend-shared byte-site image, so this holds on every backend);
//   * weighted round-robin never starves a class: 64 sessions on a
//     4-engine pool all finish their work;
//   * no frame a client can send — truncated, overlong, garbage —
//     takes the server down; each gets a typed error response.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lattice/core/engine.hpp"
#include "lattice/lgca/init.hpp"
#include "lattice/lgca3d/lattice3.hpp"
#include "lattice/serve/json_parse.hpp"
#include "lattice/serve/protocol.hpp"
#include "lattice/serve/server.hpp"
#include "lattice/serve/session_manager.hpp"

namespace {

using lattice::Extent;
using lattice::core::Backend;
using lattice::core::LatticeEngine;
using lattice::lgca::GasKind;
using lattice::serve::JsonParseError;
using lattice::serve::JsonValue;
using lattice::serve::parse_json;
using lattice::serve::Priority;
using lattice::serve::ProtocolLimits;
using lattice::serve::QuotaError;
using lattice::serve::ServeProtocol;
using lattice::serve::SessionError;
using lattice::serve::SessionId;
using lattice::serve::SessionManager;
using lattice::serve::SessionOptions;
using lattice::serve::SocketServer;

/// Fresh spool directory per test so runs never see stale checkpoints.
std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("serve_test_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

LatticeEngine::Config small_config(Backend backend, GasKind gas,
                                   std::int64_t side = 24) {
  LatticeEngine::Config cfg;
  cfg.extent = Extent{side, side};
  cfg.gas = gas;
  cfg.backend = backend;
  return cfg;
}

SessionManager::InitFn random_init(double density, std::uint64_t seed) {
  return [density, seed](lattice::lgca::SiteLattice& state,
                         const lattice::lgca::GasModel& model) {
    lattice::lgca::fill_random(state, model, density, seed, 0.1);
  };
}

std::string error_code(const std::string& response) {
  const JsonValue v = parse_json(response);
  const JsonValue* e = v.find("error");
  return e != nullptr ? std::string(e->string_or("")) : std::string();
}

bool response_ok(const std::string& response) {
  const JsonValue v = parse_json(response);
  const JsonValue* f = v.find("ok");
  return f != nullptr && f->bool_or(false);
}

// ---- JSON parser ----

TEST(JsonParse, ScalarsObjectsArrays) {
  EXPECT_EQ(parse_json("42").integer, 42);
  EXPECT_EQ(parse_json("-7").integer, -7);
  EXPECT_EQ(parse_json("true").boolean, true);
  EXPECT_EQ(parse_json("null").kind, JsonValue::Kind::Null);
  EXPECT_DOUBLE_EQ(parse_json("2.5").number, 2.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").number, 1000.0);
  EXPECT_EQ(parse_json("\"a\\nb\\u0041\"").string, "a\nbA");

  const JsonValue v = parse_json(
      "{\"op\":\"step\",\"id\":3,\"nested\":{\"xs\":[1,2,3]},\"f\":0.5}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("op")->string, "step");
  EXPECT_EQ(v.find("id")->integer, 3);
  EXPECT_EQ(v.find("nested")->find("xs")->elements.size(), 3u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, IntegerPrecisionSurvives) {
  // int64 ids must not round-trip through double.
  const std::int64_t big = (std::int64_t{1} << 62) + 1;
  EXPECT_EQ(parse_json(std::to_string(big)).integer, big);
  EXPECT_EQ(parse_json(std::to_string(big)).kind, JsonValue::Kind::Int);
  // But a fraction or exponent demotes to double.
  EXPECT_EQ(parse_json("1.0").kind, JsonValue::Kind::Double);
}

TEST(JsonParse, MalformedInputsThrowTyped) {
  const char* bad[] = {
      "",          "   ",        "{",         "[1,2",      "{\"a\":}",
      "{\"a\" 1}", "tru",        "\"unterm",  "\"\\q\"",   "01",
      "1 2",       "{} trailing", "[1,,2]",   "{\"a\":1,}", "nan",
      "\"\\ud800\"",  // lone surrogate escape: rejected, not mangled
  };
  for (const char* s : bad) {
    EXPECT_THROW(parse_json(s), JsonParseError) << "input: " << s;
  }
}

TEST(JsonParse, DepthCapStopsStackAbuse) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep, 32), JsonParseError);
  EXPECT_NO_THROW(parse_json("[[[[[1]]]]]", 32));
}

// ---- SessionManager ----

TEST(SessionManager, EvictThenRestoreIsBitExactVsUneventfulTwin) {
  for (const Backend backend : {Backend::Reference, Backend::BitPlane}) {
    SessionManager::Config pool;
    pool.max_resident = 2;
    pool.workers = 1;
    pool.quantum = 4;
    pool.spool_dir = fresh_dir("evict");
    SessionManager mgr(pool);

    const auto cfg = small_config(backend, GasKind::HPP);
    const SessionId id = mgr.create(cfg, {}, random_init(0.3, 99));

    // Twin: same config, same init, never evicted, stepped in one call.
    LatticeEngine twin(cfg);
    lattice::lgca::fill_random(twin.state(), twin.gas_model(), 0.3, 99, 0.1);

    mgr.step(id, 10);
    mgr.wait(id);
    ASSERT_TRUE(mgr.evict(id));
    EXPECT_FALSE(mgr.query(id).resident);
    EXPECT_FALSE(mgr.evict(id));  // already evicted

    // Touching it with more work restores from the spool checkpoint.
    mgr.step(id, 7);
    mgr.wait(id);
    twin.advance(17);

    const auto info = mgr.query(id);
    EXPECT_TRUE(info.resident);
    EXPECT_EQ(info.generation, 17);
    EXPECT_EQ(info.evictions, 1);
    EXPECT_EQ(info.restores, 1);
    EXPECT_TRUE(mgr.state(id) == twin.state())
        << "diverged after evict/restore, backend "
        << static_cast<int>(backend);
  }
}

TEST(SessionManager, Session3dEvictThenRestoreIsBitExact) {
  // The acceptance claim for the 3-D refactor at this layer: a hosted
  // cubic-gas session survives spool eviction and restore-on-touch
  // bit-exactly, because the checkpoint carries the volume's
  // factorization (depth) alongside the flat byte image.
  for (const Backend backend : {Backend::Reference3, Backend::BitPlane3}) {
    SessionManager::Config pool;
    pool.max_resident = 2;
    pool.workers = 1;
    pool.quantum = 4;
    pool.spool_dir = fresh_dir("evict3d");
    SessionManager mgr(pool);

    LatticeEngine::Config cfg;
    cfg.extent = Extent{24, 12};
    cfg.depth = 6;
    cfg.backend = backend;
    const lattice::lgca3d::Extent3 e3{24, 12, 6};
    const auto init = [e3](lattice::lgca::SiteLattice& state,
                           const lattice::lgca::GasModel&) {
      lattice::lgca3d::Lattice3 volume(e3, lattice::lgca3d::Boundary3::Null);
      lattice::lgca3d::fill_random(volume, 0.3, 99);
      std::memcpy(state.grid().data(), volume.data(), state.site_count());
    };
    const SessionId id = mgr.create(cfg, {}, init);

    LatticeEngine twin(cfg);
    {
      lattice::lgca3d::Lattice3 volume(e3, lattice::lgca3d::Boundary3::Null);
      lattice::lgca3d::fill_random(volume, 0.3, 99);
      std::memcpy(twin.state().grid().data(), volume.data(),
                  twin.state().site_count());
    }

    mgr.step(id, 10);
    mgr.wait(id);
    ASSERT_TRUE(mgr.evict(id));
    EXPECT_FALSE(mgr.query(id).resident);

    mgr.step(id, 7);
    mgr.wait(id);
    twin.advance(17);

    const auto info = mgr.query(id);
    EXPECT_TRUE(info.resident);
    EXPECT_EQ(info.generation, 17);
    EXPECT_EQ(info.depth, 6) << "the session must remember its nz";
    EXPECT_EQ(info.evictions, 1);
    EXPECT_EQ(info.restores, 1);
    EXPECT_TRUE(mgr.state(id) == twin.state())
        << "3-D session diverged after evict/restore, backend "
        << static_cast<int>(backend);
  }
}

TEST(SessionManager, SchedulerPressureEvictsAndStaysExact) {
  // More sessions than engines: the scheduler must juggle residency on
  // its own, and every session must still match its twin.
  SessionManager::Config pool;
  pool.max_resident = 2;
  pool.workers = 1;
  pool.quantum = 4;
  pool.spool_dir = fresh_dir("pressure");
  SessionManager mgr(pool);

  constexpr int kSessions = 6;
  constexpr std::int64_t kGens = 12;
  std::vector<SessionId> ids;
  std::vector<LatticeEngine> twins;
  twins.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    const auto cfg = small_config(
        i % 2 == 0 ? Backend::Reference : Backend::BitPlane, GasKind::HPP, 16);
    const auto seed = static_cast<std::uint64_t>(100 + i);
    ids.push_back(mgr.create(cfg, {}, random_init(0.25, seed)));
    twins.emplace_back(cfg);
    lattice::lgca::fill_random(twins.back().state(), twins.back().gas_model(),
                               0.25, seed, 0.1);
  }
  // Interleave step requests so residency churns.
  for (std::int64_t half = 0; half < 2; ++half) {
    for (const SessionId id : ids) mgr.step(id, kGens / 2);
  }
  mgr.wait_all();
  EXPECT_GE(mgr.stats().evicted, 1);
  EXPECT_GE(mgr.stats().restored, 1);
  for (int i = 0; i < kSessions; ++i) {
    twins[static_cast<std::size_t>(i)].advance(kGens);
    EXPECT_EQ(mgr.query(ids[static_cast<std::size_t>(i)]).generation, kGens);
    EXPECT_TRUE(mgr.state(ids[static_cast<std::size_t>(i)]) ==
                twins[static_cast<std::size_t>(i)].state())
        << "session " << i;
  }
}

TEST(SessionManager, NoStarvationAt64SessionsOver4Engines) {
  SessionManager::Config pool;
  pool.max_resident = 4;
  pool.workers = 2;
  pool.quantum = 2;
  pool.spool_dir = fresh_dir("fair");
  SessionManager mgr(pool);

  constexpr int kSessions = 64;
  constexpr std::int64_t kGens = 6;
  std::vector<SessionId> ids;
  for (int i = 0; i < kSessions; ++i) {
    SessionOptions opts;
    opts.priority = static_cast<Priority>(i % 3);
    ids.push_back(mgr.create(small_config(Backend::Reference, GasKind::HPP, 8),
                             opts, random_init(0.2, 7 + i)));
  }
  for (const SessionId id : ids) mgr.step(id, kGens);
  mgr.wait_all();
  // Fairness: every session — batch class included — finished all its
  // work despite 16x oversubscription of the pool.
  for (const SessionId id : ids) {
    const auto info = mgr.query(id);
    EXPECT_EQ(info.generation, kGens) << "session " << id << " starved";
    EXPECT_EQ(info.pending_generations, 0);
  }
  const auto s = mgr.stats();
  EXPECT_EQ(s.created, kSessions);
  EXPECT_EQ(s.generations, kSessions * kGens);
  EXPECT_GE(s.evicted, kSessions - pool.max_resident);
  EXPECT_LE(s.resident, pool.max_resident);
  EXPECT_EQ(s.step_latency.count, kSessions);  // one sample per step()
}

TEST(SessionManager, QuotasRefuseTyped) {
  SessionManager::Config pool;
  pool.max_resident = 2;
  pool.spool_dir = fresh_dir("quota");
  pool.max_sessions = 2;
  SessionManager mgr(pool);

  SessionOptions opts;
  opts.quota.max_generations = 10;
  opts.quota.max_pending = 4;
  const auto cfg = small_config(Backend::Reference, GasKind::HPP, 8);
  const SessionId a = mgr.create(cfg, opts);
  mgr.create(cfg);
  EXPECT_THROW(mgr.create(cfg), QuotaError);  // admission cap

  EXPECT_THROW(mgr.step(a, 5), QuotaError);  // pending cap (4)
  mgr.step(a, 4);
  mgr.wait(a);
  mgr.step(a, 4);
  mgr.wait(a);
  EXPECT_THROW(mgr.step(a, 3), QuotaError);  // lifetime cap (8 + 3 > 10)
  mgr.step(a, 2);                            // exactly at the cap is fine
  mgr.wait(a);
  EXPECT_EQ(mgr.query(a).generation, 10);
  EXPECT_EQ(mgr.stats().rejected, 3);

  EXPECT_THROW(mgr.step(999, 1), SessionError);
  EXPECT_THROW(mgr.query(999), SessionError);
  EXPECT_THROW(mgr.destroy(999), SessionError);
}

TEST(SessionManager, QuantumRoundsUpToTiledChunk) {
  // A temporally-tiled engine commits whole tile blocks; a scheduling
  // quantum smaller than the tile depth must round up, and the result
  // must still match an untiled twin.
  SessionManager::Config pool;
  pool.max_resident = 1;
  pool.quantum = 3;  // deliberately not a multiple of the tile depth
  pool.spool_dir = fresh_dir("tile");
  SessionManager mgr(pool);

  auto cfg = small_config(Backend::Reference, GasKind::HPP, 16);
  cfg.tile_generations = 4;
  const SessionId id = mgr.create(cfg, {}, random_init(0.3, 5));
  mgr.step(id, 14);
  mgr.wait(id);
  EXPECT_EQ(mgr.query(id).generation, 14);

  auto flat = small_config(Backend::Reference, GasKind::HPP, 16);
  LatticeEngine twin(flat);
  lattice::lgca::fill_random(twin.state(), twin.gas_model(), 0.3, 5, 0.1);
  twin.advance(14);
  EXPECT_TRUE(mgr.state(id) == twin.state());
}

TEST(SessionManager, CorruptSpoolPoisonsSessionNotServer) {
  SessionManager::Config pool;
  pool.max_resident = 1;
  pool.spool_dir = fresh_dir("poison");
  SessionManager mgr(pool);

  const auto cfg = small_config(Backend::Reference, GasKind::HPP, 8);
  const SessionId a = mgr.create(cfg, {}, random_init(0.3, 1));
  mgr.step(a, 4);
  mgr.wait(a);
  ASSERT_TRUE(mgr.evict(a));
  {
    // Truncate the spool checkpoint behind the manager's back.
    std::ofstream f(pool.spool_dir + "/session-" + std::to_string(a) +
                        ".ckpt",
                    std::ios::trunc | std::ios::binary);
    f << "garbage";
  }
  mgr.step(a, 4);  // restore-on-touch will fail in the worker
  EXPECT_THROW(mgr.wait(a), SessionError);
  EXPECT_THROW(mgr.step(a, 1), SessionError);  // stays poisoned
  // The server survives: other sessions still run.
  const SessionId b = mgr.create(cfg, {}, random_init(0.3, 2));
  mgr.step(b, 4);
  mgr.wait(b);
  EXPECT_EQ(mgr.query(b).generation, 4);
  mgr.destroy(a);  // poisoned sessions can still be destroyed
  EXPECT_THROW(mgr.query(a), SessionError);
}

TEST(SessionManager, ConcurrentClientsManyWorkers) {
  // TSAN target: several client threads churning create/step/query/
  // destroy against multiple scheduler workers.
  SessionManager::Config pool;
  pool.max_resident = 3;
  pool.workers = 3;
  pool.quantum = 4;
  pool.spool_dir = fresh_dir("mt");
  SessionManager mgr(pool);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      try {
        for (int i = 0; i < kPerThread; ++i) {
          const SessionId id =
              mgr.create(small_config(Backend::Reference, GasKind::HPP, 8),
                         {}, random_init(0.2, 31 + t * 100 + i));
          mgr.step(id, 4);
          mgr.step(id, 4);
          mgr.wait(id);
          if (mgr.query(id).generation != 8) failures.fetch_add(1);
          mgr.destroy(id);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mgr.session_count(), 0);
  EXPECT_EQ(mgr.stats().created, kThreads * kPerThread);
  EXPECT_EQ(mgr.stats().destroyed, kThreads * kPerThread);
}

// ---- Wire protocol ----

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : pool_([] {
          SessionManager::Config c;
          c.max_resident = 2;
          c.spool_dir = fresh_dir("proto");
          return c;
        }()),
        mgr_(pool_),
        proto_(mgr_, ProtocolLimits{}, fresh_dir("proto_ckpt")) {}

  SessionManager::Config pool_;
  SessionManager mgr_;
  ServeProtocol proto_;
};

TEST_F(ProtocolTest, LifecycleRoundTrip) {
  const std::string created = proto_.handle(
      "{\"op\":\"create\",\"width\":16,\"height\":16,\"gas\":\"hpp\","
      "\"backend\":\"bitplane\",\"init\":\"random\",\"seed\":3}");
  ASSERT_TRUE(response_ok(created)) << created;
  const std::int64_t id = parse_json(created).find("id")->integer;

  const std::string stepped =
      proto_.handle("{\"op\":\"step\",\"id\":" + std::to_string(id) +
                    ",\"generations\":8,\"wait\":true}");
  ASSERT_TRUE(response_ok(stepped)) << stepped;
  EXPECT_EQ(parse_json(stepped).find("generation")->integer, 8);

  const std::string queried =
      proto_.handle("{\"op\":\"query\",\"id\":" + std::to_string(id) + "}");
  ASSERT_TRUE(response_ok(queried)) << queried;
  EXPECT_EQ(parse_json(queried).find("width")->integer, 16);

  EXPECT_TRUE(response_ok(proto_.handle(
      "{\"op\":\"destroy\",\"id\":" + std::to_string(id) + "}")));
  EXPECT_TRUE(response_ok(proto_.handle("{\"op\":\"stats\"}")));
  EXPECT_FALSE(proto_.shutdown_requested());
  EXPECT_TRUE(response_ok(proto_.handle("{\"op\":\"shutdown\"}")));
  EXPECT_TRUE(proto_.shutdown_requested());
}

TEST_F(ProtocolTest, EveryAbuseGetsATypedErrorNeverAThrow) {
  const struct {
    const char* frame;
    const char* code;
  } cases[] = {
      {"", "parse_error"},
      {"garbage", "parse_error"},
      {"{\"op\":\"create\",\"width\":16", "parse_error"},  // truncated
      {"[1,2,3]", "bad_request"},                          // not an object
      {"{\"id\":1}", "bad_request"},                       // no op
      {"{\"op\":12}", "bad_request"},                      // op not a string
      {"{\"op\":\"warp\"}", "unknown_op"},
      {"{\"op\":\"create\",\"width\":16}", "bad_request"},  // no height
      {"{\"op\":\"create\",\"width\":1,\"height\":16}", "bad_request"},
      {"{\"op\":\"create\",\"width\":65536,\"height\":16}", "bad_request"},
      {"{\"op\":\"create\",\"width\":16,\"height\":16,\"gas\":\"ideal\"}",
       "bad_request"},
      {"{\"op\":\"create\",\"width\":16,\"height\":16,\"backend\":\"gpu\"}",
       "bad_request"},
      {"{\"op\":\"create\",\"width\":16,\"height\":16,\"init\":\"laminar\"}",
       "bad_request"},
      {"{\"op\":\"step\",\"id\":1}", "bad_request"},  // no generations
      {"{\"op\":\"step\",\"id\":1,\"generations\":0}", "bad_request"},
      {"{\"op\":\"step\",\"id\":77,\"generations\":1}", "unknown_session"},
      {"{\"op\":\"query\",\"id\":77}", "unknown_session"},
      {"{\"op\":\"destroy\",\"id\":77}", "unknown_session"},
      {"{\"op\":\"checkpoint\",\"id\":1}", "bad_request"},  // no name
  };
  for (const auto& c : cases) {
    std::string resp;
    EXPECT_NO_THROW(resp = proto_.handle(c.frame)) << c.frame;
    EXPECT_FALSE(response_ok(resp)) << c.frame;
    EXPECT_EQ(error_code(resp), c.code) << c.frame << " -> " << resp;
  }
  // After all of that the protocol still serves.
  EXPECT_TRUE(response_ok(proto_.handle("{\"op\":\"ping\"}")));
}

TEST_F(ProtocolTest, Create3dSessionOverTheWire) {
  // "depth" on the wire is pipeline depth, so nz carries the z extent.
  const std::string created = proto_.handle(
      "{\"op\":\"create\",\"width\":16,\"height\":12,\"nz\":4,"
      "\"backend\":\"bitplane3\",\"init\":\"random\",\"seed\":5}");
  ASSERT_TRUE(response_ok(created)) << created;
  const std::int64_t id = parse_json(created).find("id")->integer;

  EXPECT_TRUE(response_ok(
      proto_.handle("{\"op\":\"step\",\"id\":" + std::to_string(id) +
                    ",\"generations\":6,\"wait\":true}")));
  const std::string queried =
      proto_.handle("{\"op\":\"query\",\"id\":" + std::to_string(id) + "}");
  ASSERT_TRUE(response_ok(queried)) << queried;
  const JsonValue v = parse_json(queried);
  EXPECT_EQ(v.find("generation")->integer, 6);
  ASSERT_NE(v.find("nz"), nullptr) << "query must report the z extent";
  EXPECT_EQ(v.find("nz")->integer, 4);
  EXPECT_TRUE(response_ok(proto_.handle(
      "{\"op\":\"destroy\",\"id\":" + std::to_string(id) + "}")));
}

TEST_F(ProtocolTest, Bad3dCreatesGetTypedErrors) {
  const struct {
    const char* frame;
    const char* code;
  } cases[] = {
      // flow init has no 3-D analog
      {"{\"op\":\"create\",\"width\":16,\"height\":12,\"nz\":4,"
       "\"backend\":\"bitplane3\",\"init\":\"flow\"}",
       "bad_request"},
      // nz > 1 on a 2-D backend
      {"{\"op\":\"create\",\"width\":16,\"height\":12,\"nz\":4,"
       "\"backend\":\"bitplane\"}",
       "bad_request"},
      // nz out of the wire bound
      {"{\"op\":\"create\",\"width\":16,\"height\":12,\"nz\":0,"
       "\"backend\":\"bitplane3\"}",
       "bad_request"},
  };
  for (const auto& c : cases) {
    std::string resp;
    EXPECT_NO_THROW(resp = proto_.handle(c.frame)) << c.frame;
    EXPECT_FALSE(response_ok(resp)) << c.frame;
    EXPECT_EQ(error_code(resp), c.code) << c.frame << " -> " << resp;
  }
}

TEST_F(ProtocolTest, CheckpointNameCannotEscapeDirectory) {
  const std::string created = proto_.handle(
      "{\"op\":\"create\",\"width\":16,\"height\":16}");
  ASSERT_TRUE(response_ok(created));
  const std::int64_t id = parse_json(created).find("id")->integer;
  for (const char* name : {"../escape", "a/b", "..", ""}) {
    const std::string resp = proto_.handle(
        "{\"op\":\"checkpoint\",\"id\":" + std::to_string(id) +
        ",\"name\":\"" + name + "\"}");
    EXPECT_EQ(error_code(resp), "bad_request") << name;
  }
}

TEST_F(ProtocolTest, OverlongFrameIsTypedToo) {
  std::string big = "{\"op\":\"ping\",\"pad\":\"";
  big.append(proto_.limits().max_frame_bytes, 'x');
  big += "\"}";
  EXPECT_EQ(error_code(proto_.handle(big)), "frame_too_long");
}

TEST_F(ProtocolTest, QuotaSurfacesOnTheWire) {
  const std::string created = proto_.handle(
      "{\"op\":\"create\",\"width\":16,\"height\":16,\"max_generations\":4}");
  ASSERT_TRUE(response_ok(created));
  const std::int64_t id = parse_json(created).find("id")->integer;
  const std::string resp =
      proto_.handle("{\"op\":\"step\",\"id\":" + std::to_string(id) +
                    ",\"generations\":5}");
  EXPECT_EQ(error_code(resp), "quota_exceeded");
}

// ---- Socket framing ----

/// Run serve_connection over one end of a socketpair; drive the other.
class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_.max_resident = 2;
    pool_.spool_dir = fresh_dir("frame");
    mgr_ = std::make_unique<SessionManager>(pool_);
    proto_ = std::make_unique<ServeProtocol>(*mgr_, ProtocolLimits{},
                                             fresh_dir("frame_ckpt"));
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    server_ = std::thread([this] {
      SocketServer::serve_connection(fds_[0], *proto_, nullptr);
      ::close(fds_[0]);
    });
  }

  void TearDown() override {
    ::close(fds_[1]);
    server_.join();
  }

  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::write(fds_[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  std::string read_response() {
    std::string line;
    char c;
    while (::read(fds_[1], &c, 1) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }

  SessionManager::Config pool_;
  std::unique_ptr<SessionManager> mgr_;
  std::unique_ptr<ServeProtocol> proto_;
  int fds_[2] = {-1, -1};
  std::thread server_;
};

TEST_F(FramingTest, GarbageTruncatedAndSplitFramesAllAnswered) {
  // Binary garbage (no JSON anywhere) gets a parse_error.
  send_raw(std::string("\x01\x02\xff\xfe garbage\n"));
  EXPECT_EQ(error_code(read_response()), "parse_error");
  // A frame truncated mid-object (newline arrives early).
  send_raw("{\"op\":\"create\",\"wid\n");
  EXPECT_EQ(error_code(read_response()), "parse_error");
  // One frame split across many writes still parses as one.
  send_raw("{\"op\":");
  send_raw("\"pi");
  send_raw("ng\"}\n");
  EXPECT_TRUE(response_ok(read_response()));
  // Two frames in one write get two responses.
  send_raw("{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n");
  EXPECT_TRUE(response_ok(read_response()));
  EXPECT_TRUE(response_ok(read_response()));
  // CRLF framing and blank lines are tolerated.
  send_raw("{\"op\":\"ping\"}\r\n\n\r\n");
  EXPECT_TRUE(response_ok(read_response()));
  // Still alive for real work afterwards.
  send_raw("{\"op\":\"create\",\"width\":16,\"height\":16}\n");
  EXPECT_TRUE(response_ok(read_response()));
}

TEST_F(FramingTest, OverlongFrameResyncsAtNextNewline) {
  // No newline for > max_frame_bytes: one frame_too_long response, then
  // the stream resynchronizes at the next newline and keeps serving.
  const std::size_t n = proto_->limits().max_frame_bytes + 100;
  std::string flood(n, 'x');
  send_raw(flood);
  EXPECT_EQ(error_code(read_response()), "frame_too_long");
  send_raw("tail-of-the-oversized-frame\n{\"op\":\"ping\"}\n");
  EXPECT_TRUE(response_ok(read_response()));
}

}  // namespace
