# End-to-end checks on the bench and CLI binaries, registered as ctest cases
# with the `e2e` label (tests/CMakeLists.txt):
#
#   cmake -DCASE=<case> -DWORK_DIR=<dir> -DSOURCE_DIR=<repo root>
#         [-DFAULT_SWEEP=<fault_sweep binary>] [-DCLI=<autohet_cli binary>]
#         -P tests/e2e.cmake
#
# Each case starts from an empty WORK_DIR (the binaries write their
# artifacts to the current directory) and fails on the first non-zero exit
# or mismatch:
#   fault_sweep_pooled, fault_sweep_serial
#       `fault_sweep 20` (pooled trials) and `fault_sweep 20 1` (serial)
#       write BENCH_fault_sweep.json byte-identical to the committed
#       bench/BENCH_baseline/BENCH_fault_sweep.json.
#   graph_resnet152_replay
#       resnet152 as a residual DAG compiles to a v2 plan whose chain
#       skeleton checks out, and two replays give the same report JSON.
#   graph_chain_v1_v2
#       the lenet5 chain v2 plan and its v1 skeleton plan replay to the same
#       report JSON.
#   graph_cifar_functional
#       functional replay of the cifar-resnet v2 plan runs and reports its
#       argmax agreement.
cmake_minimum_required(VERSION 3.20)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<command> [args...]): runs in WORK_DIR; sets OUTPUT to its stdout.
function(run)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited with ${rc}\n${out}${err}")
  endif()
  set(OUTPUT "${out}" PARENT_SCOPE)
endfunction()

# same(<a> <b>): the two files (relative to WORK_DIR) are byte-identical.
function(same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

set(sweep_baseline "${SOURCE_DIR}/bench/BENCH_baseline/BENCH_fault_sweep.json")
if(CASE STREQUAL "fault_sweep_pooled")
  run("${FAULT_SWEEP}" 20)
  same(BENCH_fault_sweep.json "${sweep_baseline}")
elseif(CASE STREQUAL "fault_sweep_serial")
  run("${FAULT_SWEEP}" 20 1)
  same(BENCH_fault_sweep.json "${sweep_baseline}")
elseif(CASE STREQUAL "graph_resnet152_replay")
  run("${CLI}" graph --network resnet152 --dot-out resnet152.dot
      --plan-out graph_plan.json --check-skeleton)
  file(READ "${WORK_DIR}/resnet152.dot" dot)
  if(NOT dot MATCHES "residual_add")
    message(FATAL_ERROR "resnet152.dot has no residual_add node")
  endif()
  run("${CLI}" replay --plan-in graph_plan.json --report-json rep1.json)
  run("${CLI}" replay --plan-in graph_plan.json --report-json rep2.json)
  same(rep1.json rep2.json)
elseif(CASE STREQUAL "graph_chain_v1_v2")
  run("${CLI}" graph --network lenet5 --plan-out chain_v2.json
      --skeleton-plan-out chain_v1.json)
  run("${CLI}" replay --plan-in chain_v2.json --report-json v2_rep.json)
  run("${CLI}" replay --plan-in chain_v1.json --report-json v1_rep.json)
  same(v2_rep.json v1_rep.json)
elseif(CASE STREQUAL "graph_cifar_functional")
  run("${CLI}" graph --network cifar-resnet --plan-out cifar_v2.json)
  run("${CLI}" replay --plan-in cifar_v2.json --functional-samples 2)
  if(NOT OUTPUT MATCHES "argmax agreement")
    message(FATAL_ERROR "replay printed no argmax agreement:\n${OUTPUT}")
  endif()
else()
  message(FATAL_ERROR "unknown e2e case '${CASE}'")
endif()
