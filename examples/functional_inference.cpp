// Functional inference on the simulated heterogeneous fabric: LeNet-5 with
// 8-bit quantized weights executed crossbar-by-crossbar (including the
// faithful bit-serial datapath on the first sample), compared against the
// float reference.
//
// The input images are deterministic synthetic samples — stand-ins for
// MNIST, which hardware metrics and datapath correctness do not depend on
// (DESIGN.md §1).
#include <iostream>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/functional.hpp"
#include "report/table.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

int main() {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(42);
  const nn::Model model(net, weight_rng);

  // Heterogeneous per-layer crossbar assignment (hand-picked to show mixed
  // square and rectangle shapes; run `autohet_cli search` to learn one).
  const std::vector<mapping::CrossbarShape> shapes = {
      {36, 32},    // conv1: 5x5 kernels, 1 input channel
      {288, 256},  // conv2
      {576, 512},  // fc 400->120
      {128, 128},  // fc 120->84
      {128, 128},  // fc 84->10
  };
  const reram::SimulatedModel fabric(model, shapes);
  const reram::SimulatedModel fabric_bitserial(
      model, shapes, reram::DatapathMode::kBitSerial);

  std::cout << "LeNet-5 on the simulated heterogeneous ReRAM fabric\n";
  std::cout << "Layer -> crossbar assignment:\n";
  const auto mappable = net.mappable_layers();
  for (std::size_t i = 0; i < mappable.size(); ++i) {
    const auto& m = fabric.mapped_layers()[i].mapping();
    std::cout << "  " << mappable[i].to_string() << " -> " << shapes[i].name()
              << "  (" << m.logical_crossbars() << " logical crossbars, "
              << report::format_fixed(m.utilization() * 100.0, 1)
              << "% utilization)\n";
  }

  common::Rng image_rng(7);
  report::Table table({"Sample", "Float argmax", "ReRAM argmax",
                       "Max |diff|", "Datapath"});
  int agreements = 0;
  constexpr int kSamples = 8;
  for (int s = 0; s < kSamples; ++s) {
    const auto image = nn::synthetic_image(image_rng, 1, 32, 32);
    const auto reference = model.forward(image);
    // First sample runs the exact bit-serial datapath (slow); the rest use
    // the bit-exact integer shortcut.
    const auto simulated =
        (s == 0) ? fabric_bitserial.forward(image) : fabric.forward(image);
    const auto ref_class = tensor::argmax(reference);
    const auto sim_class = tensor::argmax(simulated);
    if (ref_class == sim_class) ++agreements;
    table.add_row({std::to_string(s), std::to_string(ref_class),
                   std::to_string(sim_class),
                   report::format_sci(
                       tensor::max_abs_diff(reference, simulated)),
                   s == 0 ? "bit-serial" : "integer"});
  }
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nClassification agreement with float reference: "
            << agreements << "/" << kSamples
            << " (ties between near-equal random logits may flip under "
               "8-bit quantization)\n";
  return agreements >= kSamples - 1 ? 0 : 1;
}
