#include "lattice/arch/memory.hpp"

#include <algorithm>

namespace lattice::arch {

BankedMemory::BankedMemory(MemoryConfig cfg) : cfg_(cfg) {
  LATTICE_REQUIRE(cfg.banks >= 1, "memory needs at least one bank");
  LATTICE_REQUIRE(cfg.bank_busy_ticks >= 1, "bank busy time must be >= 1");
}

MemoryResult BankedMemory::service(
    const std::vector<std::vector<std::int64_t>>& ticks) {
  MemoryResult r;
  std::vector<std::int64_t> bank_free(static_cast<std::size_t>(cfg_.banks),
                                      0);
  std::int64_t now = 0;
  for (const auto& batch : ticks) {
    // All of this tick's requests must issue before the machine moves
    // on; a busy bank stalls the whole synchronous tick.
    std::int64_t tick_done = now;
    for (const std::int64_t addr : batch) {
      LATTICE_REQUIRE(addr >= 0, "negative address");
      const auto b = static_cast<std::size_t>(
          addr % static_cast<std::int64_t>(cfg_.banks));
      const std::int64_t issue = std::max(now, bank_free[b]);
      bank_free[b] = issue + cfg_.bank_busy_ticks;
      tick_done = std::max(tick_done, issue + 1);
      ++r.requests;
    }
    r.stalls += tick_done - (now + 1) > 0 ? tick_done - (now + 1) : 0;
    now = std::max(now + 1, tick_done);
  }
  r.ticks = now;
  return r;
}

std::vector<std::vector<std::int64_t>> wsa_address_schedule(Extent e,
                                                            int batch) {
  LATTICE_REQUIRE(batch >= 1, "batch must be >= 1");
  std::vector<std::vector<std::int64_t>> out;
  const std::int64_t area = e.area();
  for (std::int64_t pos = 0; pos < area; pos += batch) {
    std::vector<std::int64_t> tick;
    for (int b = 0; b < batch && pos + b < area; ++b) {
      tick.push_back(pos + b);
    }
    out.push_back(std::move(tick));
  }
  return out;
}

std::vector<std::vector<std::int64_t>> spa_address_schedule(
    Extent e, std::int64_t slice_width) {
  LATTICE_REQUIRE(slice_width >= 1 && e.width % slice_width == 0,
                  "slice width must divide the lattice width");
  const std::int64_t slices = e.width / slice_width;
  const std::int64_t slice_area = slice_width * e.height;
  const std::int64_t total_ticks = slice_area + (slices - 1) * slice_width;
  std::vector<std::vector<std::int64_t>> out;
  out.reserve(static_cast<std::size_t>(total_ticks));
  for (std::int64_t t = 0; t < total_ticks; ++t) {
    std::vector<std::int64_t> tick;
    for (std::int64_t j = 0; j < slices; ++j) {
      const std::int64_t p = t - j * slice_width;  // slice-local position
      if (p < 0 || p >= slice_area) continue;
      const std::int64_t y = p / slice_width;
      const std::int64_t x = j * slice_width + p % slice_width;
      tick.push_back(y * e.width + x);
    }
    if (!tick.empty()) out.push_back(std::move(tick));
  }
  return out;
}

double line_buffer_stall_rate(Extent extent, std::int64_t lead,
                              MemoryConfig parts) {
  const std::int64_t cap = ((extent.width + 3) / 2) * 2;
  const std::int64_t window = std::min<std::int64_t>(
      extent.area() + lead, std::max<std::int64_t>(4 * cap, 1024));
  std::vector<std::vector<std::int64_t>> schedule(
      static_cast<std::size_t>(window));
  for (std::int64_t t = 0; t < window; ++t) {
    schedule[static_cast<std::size_t>(t)] = {t % cap, (t + 1) % cap};
  }
  BankedMemory channel(parts);
  const MemoryResult res = channel.service(schedule);
  return static_cast<double>(res.stalls) / static_cast<double>(window);
}

}  // namespace lattice::arch
