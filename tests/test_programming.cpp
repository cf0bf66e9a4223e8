#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "reram/programming.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::evaluate_programming;
using reram::ProgrammingParams;

mapping::AllocationResult allocate(const nn::NetworkSpec& net,
                                   CrossbarShape shape,
                                   bool shared = false) {
  const auto layers = net.mappable_layers();
  const std::vector<CrossbarShape> shapes(layers.size(), shape);
  return mapping::allocate_tiles(layers, shapes, 4, shared);
}

TEST(Programming, CellCountCoversAllBitPlanes) {
  const auto net = nn::lenet5();
  const auto allocation = allocate(net, {128, 128});
  const reram::DeviceParams device;
  const auto r = evaluate_programming(allocation, device);
  EXPECT_EQ(r.cells_programmed, net.total_weights() * 8);
}

TEST(Programming, EnergyFormulaExact) {
  const auto allocation = allocate(nn::lenet5(), {128, 128});
  const reram::DeviceParams device;
  ProgrammingParams params;
  params.write_energy_pj_per_cell = 10.0;
  params.verify_pulses = 3.0;
  const auto r = evaluate_programming(allocation, device, params);
  const double expected =
      static_cast<double>(r.cells_programmed) * 3.0 * 10.0 * 1e-3;
  EXPECT_NEAR(r.energy_nj, expected, expected * 1e-12);
}

TEST(Programming, EnergyInvariantToCrossbarShape) {
  // The same weights are written regardless of the crossbar geometry.
  const auto a = evaluate_programming(allocate(nn::alexnet(), {64, 64}),
                                      reram::DeviceParams{});
  const auto b = evaluate_programming(allocate(nn::alexnet(), {512, 512}),
                                      reram::DeviceParams{});
  EXPECT_EQ(a.cells_programmed, b.cells_programmed);
  EXPECT_NEAR(a.energy_nj, b.energy_nj, a.energy_nj * 1e-12);
}

TEST(Programming, LatencyBoundedByTallestOccupiedCrossbar) {
  const auto allocation = allocate(nn::vgg16(), {512, 512});
  const reram::DeviceParams device;
  ProgrammingParams params;
  const auto r = evaluate_programming(allocation, device, params);
  // Row-parallel: at most shape.rows × pulses × write latency.
  EXPECT_LE(r.latency_ns,
            512.0 * params.verify_pulses * params.write_latency_ns + 1e-9);
  EXPECT_GT(r.latency_ns, 0.0);
}

TEST(Programming, TallerCrossbarsTakeLongerToProgram) {
  const auto small = evaluate_programming(allocate(nn::vgg16(), {64, 64}),
                                          reram::DeviceParams{});
  const auto tall = evaluate_programming(allocate(nn::vgg16(), {512, 512}),
                                         reram::DeviceParams{});
  EXPECT_LT(small.latency_ns, tall.latency_ns);
}

TEST(Programming, SerialModeMuchSlower) {
  const auto allocation = allocate(nn::lenet5(), {128, 128});
  const reram::DeviceParams device;
  ProgrammingParams parallel;
  ProgrammingParams serial = parallel;
  serial.row_parallel = false;
  const auto rp = evaluate_programming(allocation, device, parallel);
  const auto rs = evaluate_programming(allocation, device, serial);
  EXPECT_GT(rs.latency_ns, rp.latency_ns);
}

TEST(Programming, FewerBitPlanesCutProgrammingCost) {
  const auto allocation = allocate(nn::lenet5(), {128, 128});
  reram::DeviceParams mlc;
  mlc.cell_bits = 4;  // 2 planes instead of 8
  const auto slc =
      evaluate_programming(allocation, reram::DeviceParams{});
  const auto mlc_report = evaluate_programming(allocation, mlc);
  EXPECT_NEAR(static_cast<double>(mlc_report.cells_programmed) /
                  static_cast<double>(slc.cells_programmed),
              0.25, 1e-12);
}

TEST(Programming, ValidatesParams) {
  const auto allocation = allocate(nn::lenet5(), {128, 128});
  ProgrammingParams bad;
  bad.verify_pulses = 0.5;
  EXPECT_THROW(
      evaluate_programming(allocation, reram::DeviceParams{}, bad),
      std::invalid_argument);
  bad = ProgrammingParams{};
  bad.write_energy_pj_per_cell = 0.0;
  EXPECT_THROW(
      evaluate_programming(allocation, reram::DeviceParams{}, bad),
      std::invalid_argument);
}

}  // namespace
}  // namespace autohet
