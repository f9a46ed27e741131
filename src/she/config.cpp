#include "she/config.hpp"

#include <cmath>
#include <stdexcept>

#include "common/int_math.hpp"

namespace she {

std::uint64_t SheConfig::tcycle() const {
  return static_cast<std::uint64_t>(
      std::llround((1.0 + alpha) * static_cast<double>(window)));
}

std::size_t SheConfig::groups() const {
  return static_cast<std::size_t>(ceil_div(cells, group_cells));
}

void SheConfig::save(BinaryWriter& out) const {
  out.tag("SCFG");
  out.u64(window);
  out.u64(cells);
  out.u64(group_cells);
  out.f64(alpha);
  out.f64(beta);
  out.u32(seed);
  out.u32(mark_bits);
}

SheConfig SheConfig::load(BinaryReader& in) {
  in.expect_tag("SCFG");
  SheConfig cfg;
  cfg.window = in.u64();
  cfg.cells = in.u64();
  cfg.group_cells = in.u64();
  cfg.alpha = in.f64();
  cfg.beta = in.f64();
  cfg.seed = in.u32();
  cfg.mark_bits = in.u32();
  while_loading([&] { cfg.validate(); });
  return cfg;
}

void SheConfig::validate() const {
  if (window == 0) throw std::invalid_argument("SheConfig: window must be > 0");
  if (cells == 0) throw std::invalid_argument("SheConfig: cells must be > 0");
  if (group_cells == 0 || group_cells > cells)
    throw std::invalid_argument("SheConfig: group_cells must be in [1, cells]");
  if (!(alpha > 0.0))
    throw std::invalid_argument("SheConfig: alpha must be > 0 (Tcycle > N)");
  if (!(beta > 0.0) || beta > 1.0)
    throw std::invalid_argument("SheConfig: beta must be in (0, 1]");
  if (mark_bits == 0 || mark_bits > 32)
    throw std::invalid_argument("SheConfig: mark_bits must be in [1, 32]");
  if (tcycle() <= window)
    throw std::invalid_argument("SheConfig: Tcycle must exceed the window");
}

}  // namespace she
