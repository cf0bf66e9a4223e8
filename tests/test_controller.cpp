// Global Controller: program compilation and the checked decoder.
#include <gtest/gtest.h>

#include "mapping/tile_allocator.hpp"
#include "nn/model_zoo.hpp"
#include "reram/controller.hpp"

namespace autohet {
namespace {

using reram::compile_program;
using reram::execute_program;
using reram::Instruction;
using reram::Opcode;

struct Compiled {
  std::vector<nn::LayerSpec> layers;
  mapping::AllocationResult allocation;
  std::vector<Instruction> program;
};

Compiled compile_network(const nn::NetworkSpec& net,
                         mapping::CrossbarShape shape, bool shared) {
  Compiled c;
  c.layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(c.layers.size(), shape);
  c.allocation = mapping::allocate_tiles(c.layers, shapes, 4, shared);
  c.program = compile_program(c.layers, c.allocation);
  return c;
}

TEST(Controller, CompiledProgramExecutesCleanly) {
  const auto c = compile_network(nn::lenet5(), {64, 64}, false);
  const auto stats = execute_program(c.program);
  EXPECT_EQ(stats.tiles_configured, c.allocation.occupied_tiles());
  EXPECT_EQ(stats.layers_executed,
            static_cast<std::int64_t>(c.layers.size()));
  // One barrier after programming plus one per layer.
  EXPECT_EQ(stats.barriers, static_cast<std::int64_t>(c.layers.size()) + 1);
}

TEST(Controller, MvmsMatchLayerWork) {
  const auto c = compile_network(nn::alexnet(), {128, 128}, false);
  const auto stats = execute_program(c.program);
  std::int64_t expected_mvms = 0;
  for (std::size_t k = 0; k < c.layers.size(); ++k) {
    // Each hosting tile receives the layer's full MVM schedule.
    expected_mvms +=
        c.layers[k].mvm_count() * c.allocation.layers[k].tiles_allocated;
  }
  EXPECT_EQ(stats.mvms_issued, expected_mvms);
}

TEST(Controller, BufferTrafficMatchesLayerGeometry) {
  const auto c = compile_network(nn::lenet5(), {64, 64}, false);
  const auto stats = execute_program(c.program);
  std::int64_t in = 0, out = 0;
  for (const auto& layer : c.layers) {
    in += layer.weight_rows();
    out += layer.out_channels;
  }
  EXPECT_EQ(stats.input_bytes, in);
  EXPECT_EQ(stats.output_bytes, out);
}

TEST(Controller, TileSharedProgramsRemainValid) {
  // With tile sharing, multiple layers program the same tile; the decoder
  // must accept that while still rejecting double-programming.
  const auto c = compile_network(nn::vgg16(), {64, 64}, true);
  const auto stats = execute_program(c.program);
  EXPECT_EQ(stats.tiles_configured, c.allocation.occupied_tiles());
  EXPECT_EQ(stats.layers_executed, 16);
}

TEST(Controller, RejectsProgrammingUnconfiguredTile) {
  const std::vector<Instruction> program = {
      {Opcode::kProgramWeights, 7, 0, 1},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsDoubleConfiguration) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 64, 64},
      {Opcode::kConfigureTile, 0, 64, 64},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsExecutingUnprogrammedLayer) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 64, 64},
      {Opcode::kLoadInput, 0, 10, 0},
      {Opcode::kExecuteLayer, 0, 0, 5},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsExecutionBeforeInputLoad) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 64, 64},
      {Opcode::kProgramWeights, 0, 0, 1},
      {Opcode::kExecuteLayer, 0, 0, 5},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsMergeBeforeExecution) {
  const std::vector<Instruction> program = {
      {Opcode::kMergeOutputs, 0, 1, 0},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsMergeFanInMismatch) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 64, 64},
      {Opcode::kProgramWeights, 0, 0, 1},
      {Opcode::kLoadInput, 0, 10, 0},
      {Opcode::kExecuteLayer, 0, 0, 5},
      {Opcode::kMergeOutputs, 0, 2, 0},  // claims 2 tiles, only 1 executed
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsStoreBeforeMerge) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 64, 64},
      {Opcode::kProgramWeights, 0, 0, 1},
      {Opcode::kLoadInput, 0, 10, 0},
      {Opcode::kExecuteLayer, 0, 0, 5},
      {Opcode::kStoreOutput, 0, 4, 0},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, RejectsInvalidTileGeometry) {
  const std::vector<Instruction> program = {
      {Opcode::kConfigureTile, 0, 0, 64},
  };
  EXPECT_THROW(execute_program(program), std::invalid_argument);
}

TEST(Controller, InstructionToStringIsReadable) {
  const Instruction inst{Opcode::kExecuteLayer, 3, 1, 49};
  EXPECT_EQ(inst.to_string(), "EXECUTE_LAYER 3 1 49");
  EXPECT_STREQ(reram::opcode_name(Opcode::kBarrier), "BARRIER");
}

TEST(Controller, HeterogeneousShapesCompile) {
  const auto layers = nn::lenet5().mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes = {
      {36, 32}, {288, 256}, {576, 512}, {128, 128}, {32, 32}};
  const auto allocation =
      mapping::allocate_tiles(layers, shapes, 4, true);
  const auto program = compile_program(layers, allocation);
  const auto stats = execute_program(program);
  EXPECT_EQ(stats.layers_executed, 5);
  // Every configure instruction carries a real candidate geometry.
  for (const auto& inst : program) {
    if (inst.op == Opcode::kConfigureTile) {
      EXPECT_GT(inst.b, 0);
      EXPECT_GT(inst.c, 0);
    }
  }
}

}  // namespace
}  // namespace autohet
