// Checkpoint/restore round trips: resuming from a snapshot at
// generation k must reproduce the uninterrupted run bit-exactly, on
// every backend and both boundary modes the backend supports — plus
// the durable on-disk form (checkpoint_io.hpp), which must restore
// bit-exactly and reject every corrupted image with a typed error.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lattice/core/checkpoint_io.hpp"
#include "lattice/core/engine.hpp"
#include "lattice/lgca/ca_rules.hpp"
#include "lattice/lgca/init.hpp"

namespace lattice::core {
namespace {

LatticeEngine::Config cfg(Backend b, lgca::Boundary boundary) {
  LatticeEngine::Config c;
  c.extent = {32, 24};
  c.gas = lgca::GasKind::FHP_II;
  c.boundary = boundary;
  c.backend = b;
  c.pipeline_depth = 3;
  c.wsa_width = 2;
  c.spa_slice_width = 8;
  return c;
}

void seed(LatticeEngine& e) {
  lgca::fill_random(e.state(), e.gas_model(), 0.3, 31, 0.15);
}

struct CkptCase {
  Backend backend;
  lgca::Boundary boundary;
};

class CheckpointTest : public ::testing::TestWithParam<CkptCase> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsAndBoundaries, CheckpointTest,
    ::testing::Values(CkptCase{Backend::Reference, lgca::Boundary::Null},
                      CkptCase{Backend::Reference, lgca::Boundary::Periodic},
                      CkptCase{Backend::Wsa, lgca::Boundary::Null},
                      CkptCase{Backend::Spa, lgca::Boundary::Null},
                      CkptCase{Backend::BitPlane, lgca::Boundary::Null},
                      CkptCase{Backend::BitPlane, lgca::Boundary::Periodic},
                      CkptCase{Backend::WsaE, lgca::Boundary::Null}),
    [](const auto& info) {
      std::string s;
      switch (info.param.backend) {
        case Backend::Reference: s = "Reference"; break;
        case Backend::Wsa: s = "Wsa"; break;
        case Backend::Spa: s = "Spa"; break;
        case Backend::BitPlane: s = "BitPlane"; break;
        case Backend::WsaE: s = "WsaE"; break;
        case Backend::Reference3: s = "Reference3"; break;
        case Backend::BitPlane3: s = "BitPlane3"; break;
      }
      s += info.param.boundary == lgca::Boundary::Null ? "Null" : "Periodic";
      return s;
    });

TEST_P(CheckpointTest, SaveRestoreRoundTripIsBitExact) {
  const CkptCase p = GetParam();
  LatticeEngine straight(cfg(p.backend, p.boundary));
  LatticeEngine resumed(cfg(p.backend, p.boundary));
  seed(straight);
  seed(resumed);
  const EngineCheckpoint start = resumed.checkpoint();
  straight.advance(10);

  resumed.advance(4);
  const EngineCheckpoint ckpt = resumed.checkpoint();
  EXPECT_EQ(ckpt.generation, 4);

  // Run past the snapshot, then rewind and replay.
  resumed.advance(6);
  EXPECT_TRUE(resumed.state() == straight.state());
  resumed.restore(ckpt);
  EXPECT_EQ(resumed.generation(), 4);
  resumed.advance(6);
  EXPECT_EQ(resumed.generation(), 10);
  EXPECT_TRUE(resumed.state() == straight.state())
      << "replay from the snapshot must be bit-exact";
  EXPECT_TRUE(resumed.verify_against_reference(start));
}

TEST_P(CheckpointTest, RestoreIsIdempotent) {
  const CkptCase p = GetParam();
  LatticeEngine e(cfg(p.backend, p.boundary));
  seed(e);
  e.advance(5);
  const EngineCheckpoint ckpt = e.checkpoint();
  e.restore(ckpt);
  e.restore(ckpt);
  EXPECT_EQ(e.generation(), 5);
  EXPECT_TRUE(e.state() == ckpt.state);
}

TEST(Checkpoint, RestoreRejectsMismatchedGeometry) {
  LatticeEngine e(cfg(Backend::Wsa, lgca::Boundary::Null));
  seed(e);
  EngineCheckpoint wrong_extent{
      lgca::SiteLattice({16, 16}, lgca::Boundary::Null), 0};
  EXPECT_THROW(e.restore(wrong_extent), Error);
  EngineCheckpoint wrong_boundary{
      lgca::SiteLattice({32, 24}, lgca::Boundary::Periodic), 0};
  EXPECT_THROW(e.restore(wrong_boundary), Error);
  EngineCheckpoint negative{lgca::SiteLattice({32, 24}, lgca::Boundary::Null),
                            -1};
  EXPECT_THROW(e.restore(negative), Error);
}

TEST(Checkpoint, CustomRuleEngineRoundTrips) {
  // restore() must not assume a gas: a custom-rule engine (no
  // gas_model, generic kernel path) round-trips the same way.
  const lgca::LifeRule life;
  LatticeEngine::Config c = cfg(Backend::Wsa, lgca::Boundary::Null);
  c.custom_rule = &life;
  LatticeEngine straight(c);
  LatticeEngine resumed(c);
  for (std::size_t i = 0; i < straight.state().site_count(); ++i) {
    const auto v = static_cast<lgca::Site>((i * 2654435761u >> 7) & 1);
    straight.state()[i] = v;
    resumed.state()[i] = v;
  }
  const EngineCheckpoint start = resumed.checkpoint();
  straight.advance(9);
  resumed.advance(3);
  const EngineCheckpoint ckpt = resumed.checkpoint();
  resumed.advance(6);
  resumed.restore(ckpt);
  resumed.advance(6);
  EXPECT_TRUE(resumed.state() == straight.state());
  EXPECT_TRUE(resumed.verify_against_reference(start));
}

TEST(Checkpoint, RestoreMidGuardedRunReplaysCleanly) {
  // A user-level restore in the middle of a fault-guarded run: the
  // replay runs under the same detectors and must land on the
  // fault-free evolution, exactly like the uninterrupted guarded run.
  LatticeEngine::Config c = cfg(Backend::Wsa, lgca::Boundary::Null);
  c.fault.seed = 10;
  c.fault.buffer_flip_rate = 1e-5;
  LatticeEngine guarded(c);
  LatticeEngine clean(cfg(Backend::Wsa, lgca::Boundary::Null));
  seed(guarded);
  seed(clean);
  const EngineCheckpoint start = guarded.checkpoint();
  clean.advance(12);

  guarded.advance(6);
  const EngineCheckpoint ckpt = guarded.checkpoint();
  guarded.advance(6);
  guarded.restore(ckpt);
  EXPECT_EQ(guarded.generation(), 6);
  guarded.advance(6);
  EXPECT_EQ(guarded.generation(), 12);
  EXPECT_TRUE(guarded.state() == clean.state())
      << "guarded replay from a user checkpoint must commit only "
         "fault-free generations";
  EXPECT_TRUE(guarded.verify_against_reference(start));
}

TEST_P(CheckpointTest, DurableRoundTripRestoresBitExactly) {
  // Serialize the snapshot through the on-disk byte format and resume
  // from the parsed copy: the replay must still be bit-exact on every
  // backend — the payload is the backend-neutral byte-site image.
  const CkptCase p = GetParam();
  LatticeEngine straight(cfg(p.backend, p.boundary));
  LatticeEngine resumed(cfg(p.backend, p.boundary));
  seed(straight);
  seed(resumed);
  straight.advance(10);

  resumed.advance(4);
  const EngineCheckpoint saved = resumed.checkpoint();
  std::stringstream buf;
  save_checkpoint(saved, buf);
  resumed.advance(6);

  const EngineCheckpoint loaded = load_checkpoint(buf);
  EXPECT_EQ(loaded.generation, 4);
  EXPECT_TRUE(loaded.state == saved.state)
      << "the parsed image must equal the in-memory snapshot";
  resumed.restore(loaded);
  resumed.advance(6);
  EXPECT_TRUE(resumed.state() == straight.state())
      << "replay from the durable snapshot must be bit-exact";
}

TEST(CheckpointIo, FileRoundTripPreservesEverything) {
  LatticeEngine e(cfg(Backend::Reference, lgca::Boundary::Periodic));
  seed(e);
  e.advance(7);
  const EngineCheckpoint ckpt = e.checkpoint();
  const std::string path = ::testing::TempDir() + "lattice_ckpt_test.bin";
  save_checkpoint(ckpt, path);
  const EngineCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.generation, 7);
  EXPECT_EQ(loaded.state.boundary(), lgca::Boundary::Periodic);
  EXPECT_TRUE(loaded.state == ckpt.state);
  std::remove(path.c_str());
}

std::string serialized_checkpoint() {
  LatticeEngine e(cfg(Backend::Reference, lgca::Boundary::Null));
  seed(e);
  e.advance(3);
  std::stringstream buf;
  save_checkpoint(e.checkpoint(), buf);
  return buf.str();
}

TEST(CheckpointIo, RejectsTruncationAtEveryLength) {
  const std::string image = serialized_checkpoint();
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{24},
        std::size_t{33}, image.size() / 2, image.size() - 1}) {
    std::istringstream in(image.substr(0, len));
    EXPECT_THROW(load_checkpoint(in), CheckpointError)
        << "prefix of " << len << " bytes must be rejected";
  }
}

TEST(CheckpointIo, RejectsEverySingleBitFlip) {
  // The checksum covers header and payload, so no single corrupted
  // byte anywhere in the image may load — not as a different lattice,
  // not as a different generation, not silently.
  const std::string image = serialized_checkpoint();
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    std::istringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), CheckpointError)
        << "flip at byte " << i << " must be rejected";
  }
}

TEST(CheckpointIo, RejectsBadMagicVersionAndGeometryBeforeAllocation) {
  const std::string image = serialized_checkpoint();
  {
    std::string bad = image;
    bad[0] = static_cast<char>(~bad[0]);
    std::istringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), CheckpointError) << "magic";
  }
  {
    std::string bad = image;
    bad[4] = 0x7F;  // unknown future version
    std::istringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), CheckpointError) << "version";
  }
  {
    // A corrupted extent must be rejected by the sanity bound before
    // the loader tries to allocate width x height bytes.
    std::string bad = image;
    for (std::size_t i = 8; i < 16; ++i) {
      bad[i] = static_cast<char>(0xFF);
    }
    std::istringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), CheckpointError) << "geometry bomb";
  }
}

// ---- the v2 depth field and v1 read-compatibility ----

TEST(CheckpointIo, V2DepthFieldRoundTrips) {
  EngineCheckpoint ckpt;
  ckpt.state = lgca::SiteLattice({8, 12}, lgca::Boundary::Periodic);
  for (std::size_t i = 0; i < ckpt.state.site_count(); ++i) {
    ckpt.state[i] = static_cast<lgca::Site>((i * 37) & 0x7F);
  }
  ckpt.generation = 7;
  ckpt.depth = 3;  // the flat {8, 12} view is the volume {8, 4, 3}
  std::stringstream buf;
  save_checkpoint(ckpt, buf);
  const EngineCheckpoint loaded = load_checkpoint(buf);
  EXPECT_EQ(loaded.depth, 3);
  EXPECT_EQ(loaded.generation, 7);
  EXPECT_TRUE(loaded.state == ckpt.state)
      << "the flat byte view must survive the factorized header";
}

TEST(CheckpointIo, SaveRejectsDepthThatDoesNotDivideTheHeight) {
  EngineCheckpoint ckpt;
  ckpt.state = lgca::SiteLattice({8, 12}, lgca::Boundary::Null);
  ckpt.depth = 5;  // 12 % 5 != 0: no volume factors this way
  std::stringstream buf;
  EXPECT_THROW(save_checkpoint(ckpt, buf), Error);
}

std::string legacy_v1_image(std::int64_t width, std::int64_t height,
                            unsigned char boundary, std::int64_t generation,
                            const std::string& payload) {
  // Hand-assembled v1 bytes (pre-depth format), exactly as the v1
  // writer emitted them: magic, version 1, {width, height}, boundary,
  // generation, payload, FNV-1a-64 trailer over everything before it.
  std::string img;
  const auto u32 = [&img](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) img.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto u64 = [&img](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) img.push_back(static_cast<char>(v >> (8 * i)));
  };
  u32(0x504B434Cu);
  u32(1);
  u64(static_cast<std::uint64_t>(width));
  u64(static_cast<std::uint64_t>(height));
  img.push_back(static_cast<char>(boundary));
  u64(static_cast<std::uint64_t>(generation));
  img += payload;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : img) h = (h ^ c) * 0x100000001b3ull;
  u64(h);
  return img;
}

TEST(CheckpointIo, ReadsLegacyV1ImagesAsDepthOne) {
  std::string payload(8 * 4, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 7) & 0x7F);
  }
  std::istringstream in(legacy_v1_image(8, 4, 1, 5, payload));
  const EngineCheckpoint loaded = load_checkpoint(in);
  EXPECT_EQ(loaded.depth, 1) << "a pre-depth image is a planar lattice";
  EXPECT_EQ(loaded.generation, 5);
  EXPECT_EQ(loaded.state.extent().width, 8);
  EXPECT_EQ(loaded.state.extent().height, 4);
  EXPECT_EQ(loaded.state.boundary(), lgca::Boundary::Periodic);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(loaded.state[i], static_cast<lgca::Site>(payload[i]));
  }
}

TEST(CheckpointIo, RejectsCorruptLegacyV1Images) {
  const std::string image = legacy_v1_image(8, 4, 0, 5, std::string(32, 'x'));
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    std::istringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), CheckpointError)
        << "v1 flip at byte " << i << " must be rejected";
  }
}

TEST(CheckpointIo, RejectsDepthGeometryBombBeforeAllocation) {
  // A corrupted depth field (bytes 24..32 of a v2 image) must hit the
  // sanity bound, not become a giant height·depth allocation.
  const std::string image = serialized_checkpoint();
  std::string bad = image;
  for (std::size_t i = 24; i < 32; ++i) bad[i] = static_cast<char>(0xFF);
  std::istringstream in(bad);
  EXPECT_THROW(load_checkpoint(in), CheckpointError);
}

TEST(Checkpoint, SnapshotIsIsolatedFromLaterEvolution) {
  LatticeEngine e(cfg(Backend::Reference, lgca::Boundary::Null));
  seed(e);
  e.advance(2);
  const EngineCheckpoint ckpt = e.checkpoint();
  const lgca::SiteLattice frozen = ckpt.state;
  e.advance(3);
  EXPECT_TRUE(ckpt.state == frozen)
      << "a checkpoint is a deep copy, not a view";
}

}  // namespace
}  // namespace lattice::core
