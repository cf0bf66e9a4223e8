# End-to-end checks on the bench and CLI binaries, registered as ctest cases
# with the `e2e` label (tests/CMakeLists.txt):
#
#   cmake -DCASE=<case> -DWORK_DIR=<dir> -DSOURCE_DIR=<repo root>
#         [-DFAULT_SWEEP=<fault_sweep binary>] [-DCLI=<autohet_cli binary>]
#         [-DSERVING_SIM=<serving_sim binary>]
#         [-DPAPER_RESULTS=<paper_results binary>]
#         [-DFUNCTIONAL_THROUGHPUT=<functional_throughput binary>]
#         [-DTEST_KERNELS=<test_kernels binary>] [-DTEST_MLP=<test_mlp binary>]
#         -P tests/e2e.cmake
#
# Each case starts from an empty WORK_DIR (the binaries write their
# artifacts to the current directory) and fails on the first non-zero exit
# or mismatch:
#   fault_sweep_pooled, fault_sweep_serial
#       `fault_sweep 20` (pooled trials) and `fault_sweep 20 1` (serial)
#       write BENCH_fault_sweep.json byte-identical to the committed
#       bench/BENCH_baseline/BENCH_fault_sweep.json.
#   fault_sweep_adaptive_pooled, fault_sweep_adaptive_serial
#       `fault_sweep 20 0 adaptive` (pooled) and `fault_sweep 20 1 adaptive`
#       (serial) write BENCH_fault_sweep_adaptive.json byte-identical to the
#       committed baseline, and leave BENCH_fault_sweep.json unwritten. The
#       pooled case also checks the adaptive run against the committed
#       fixed-mode sweep: budget mode `adaptive`, mc_savings_ratio >= 3,
#       every zero-stuck-rate point stopped at min_trials, the same series
#       names and tile shapes, and every point's CI overlapping the fixed
#       run's CI (the adaptive trials are a seeded prefix of the fixed
#       stream, so disjoint intervals mean a broken stopping rule).
#   serving_sim_threads
#       `serving_sim 500` run twice, and once more with --threads 0, writes
#       the same BENCH_serving.json each time; the report has its format
#       and version, ordered latency percentiles (0 < p50 <= p95 <= p99 <=
#       max), a positive sustained rate, request and swap-in totals equal
#       to the per-model sums, and more swap-ins than models. The default
#       `serving_sim` and `serving_sim --threads 0` each write the committed
#       bench/BENCH_baseline/BENCH_serving.json byte for byte.
#   paper_results
#       `paper_results --episodes 20` (every paper figure, table and
#       ablation section) prints the committed
#       bench/BENCH_baseline/paper_results_e20.txt byte for byte.
#   functional_throughput
#       `functional_throughput 1 8` (one rep of the fault_sweep Monte-Carlo
#       workload) reports every fast serial and parallel robustness report
#       identical to the oracle's serial Monte-Carlo under every supported
#       kernel variant, over all three configurations; the aggregate
#       speedup is at least 1.5x, every raw kernel beats its scalar oracle
#       (the bench times each leg three times, alternating, and keeps the
#       best of each), the selected variant is a supported one and every supported variant
#       was timed and byte-checked, and the parallel path is at most 1.05x
#       the serial one. Runs alone (RUN_SERIAL): the last bound is a timing.
#   graph_resnet152_replay
#       resnet152 as a residual DAG compiles to a v2 plan whose chain
#       skeleton checks out, and two replays give the same report JSON.
#   graph_chain_v1_v2
#       the lenet5 chain v2 plan and its v1 skeleton plan replay to the same
#       report JSON.
#   graph_cifar_functional
#       functional replay of the cifar-resnet v2 plan runs and reports its
#       argmax agreement; its robustness MC replay prints the same report at
#       1 and at 4 Monte-Carlo threads.
#   plan_roundtrip
#       a 20-episode lenet5 search saves its plan and report; two replays of
#       the saved plan each reproduce the search-time report byte for byte,
#       and replay rejects a search option next to --plan-in. A copy of the
#       fixture plan with a nonzero read_sigma, drift_time_s or drift_nu
#       fails replay with an error naming the key (the fault model has no
#       read noise or retention drift).
#   profile_threads
#       `profile` of the committed v1 fixture plan (tests/data) with
#       functional samples and Monte-Carlo trials writes the same
#       profile.json at 1 and at 4 Monte-Carlo threads, and that file
#       matches its schema: format/version, the six sections, the counters
#       (61,470 program writes: the Monte-Carlo programs no deployment, so
#       every layer's and tile's writes equal the run without it), one
#       known bottleneck per layer and a timeline that starts busy at t=0
#       and drains to zero.
#   replay_mc_threads
#       a one-trial robustness MC replay of the fixture plan (four samples:
#       a single (trial, sample-chunk) item) prints the same report at 1
#       and at 4 Monte-Carlo threads.
#   serve_replay
#       `serve` of the fixture plan twice gives the same serving JSON on a
#       rerun and on a --traffic-in replay of the saved trace at
#       --serve-threads 0; with AUTOHET_OBS on, its Chrome trace carries the
#       queue-depth counter track and its profile the model swap-ins.
#   serve_flags
#       `serve` of the fixture plan as three tenants: --traffic-seed,
#       --zipf, --max-wait-us, --tile-capacity, --eviction and --sharing
#       each change the serving JSON from the default run's; under a tile
#       budget that forces swaps, lfu eviction and no sharing each change
#       the totals, not only the config echo. An unknown --eviction or
#       --sharing name exits non-zero and writes no serving JSON.
#   search_shapes
#       a lenet5 search prints one winning crossbar shape per mappable
#       layer; the removed strategy-file surfaces (`evaluate`, `--out`) are
#       rejected.
#   search_flags
#       an 8-episode lenet5 search over --candidates square prints only
#       square shapes and saves a different plan than over hybrid (at 4
#       episodes both sets still pick 32x32 everywhere); its --csv history
#       holds the header plus one row per episode. An unknown candidate set
#       exits non-zero naming it and writes no plan.
#   negative_counts
#       a count below its minimum (a negative --serve-threads, --top or
#       --functional-samples; a zero --pes-per-tile, --requests, --batch or
#       --max-batch; a negative --pes-per-tile), an --episodes beyond int
#       and a negative --qps exit 2 with an error naming the flag; the
#       removed --eval-threads exits 2 as an unknown option.
#   kernel_env
#       `autohet_cli kernels` under AUTOHET_KERNEL=portable shows portable
#       active for both kernel tables; AUTOHET_KERNEL=neon is rejected.
#   reram_dispatch
#       `autohet_cli kernels` lists the reram variants this host supports
#       (portable among them), and the kernel equivalence suite
#       (test_kernels) passes once per supported variant with
#       AUTOHET_KERNEL forcing it, so a lost CPUID rule or a variant that
#       diverges from the scalar oracles fails here. The forced runs skip
#       the AllVariants/* cases: each of those already steps through every
#       supported variant in the plain test_kernels run.
#   fault_sweep_variants
#       under each reram variant `autohet_cli kernels` lists as supported,
#       forced by AUTOHET_KERNEL, `fault_sweep 20` and `fault_sweep 20 0
#       adaptive` write the committed BENCH_fault_sweep.json and
#       BENCH_fault_sweep_adaptive.json byte for byte.
#   rl_dispatch
#       the same for the rl table: `autohet_cli kernels` lists the rl
#       variants this host supports (portable among them); under
#       AUTOHET_KERNEL=<v> it shows <v> active for rl and the MLP suite
#       (test_mlp) passes, once per supported variant. test_search_anchor
#       already checks every supported rl variant in one process.
#   bench_args
#       the bench binaries reject a bad positional count, budget mode,
#       paper section, --episodes, --threads or --kernel, naming the
#       argument and writing no artifact (not even a requested metrics
#       file); an instrumented `paper_results search_convergence --episodes
#       40` writes a valid Chrome-trace JSON and an exposition with the
#       eval-cache series (registered only with AUTOHET_OBS on).
#   telemetry
#       an instrumented `search`, a `baselines` run and a pooled
#       (--mc-threads 2) robustness MC replay of the fixture plan write
#       valid Chrome-trace JSON, a parseable JSONL episode log, and
#       expositions with the key spans and series (registered only with
#       AUTOHET_OBS on).
#   fault_telemetry
#       an instrumented `fault_sweep 20` writes the committed sweep JSON
#       byte for byte (at least two series, each over three or more stuck
#       rates and two or more cell widths), a valid Chrome trace with the
#       `mc_robustness` span, and an exposition with the five
#       autohet_fault_* series (registered only with AUTOHET_OBS on).
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

# run_fails(<expected stderr text> <command> [args...]): the command exits
# non-zero and its stderr contains the expected text.
function(run_fails expected)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' succeeded but should have failed")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' failed without '${expected}':\n${err}")
  endif()
endfunction()

# run_rejected(<expected stderr text> <command> [args...]): the command
# exits 2, the usage-error code, and its stderr contains the expected text.
function(run_rejected expected)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited with ${rc}, not 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${ARGN}' failed without '${expected}':\n${err}")
  endif()
endfunction()

# same(<a> <b>): the two files (relative to WORK_DIR) are byte-identical.
function(same a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ")
  endif()
endfunction()

# differ(<a> <b>): the two files (relative to WORK_DIR) are not identical.
function(differ a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} are identical")
  endif()
endfunction()

# contains(<file> <text>): the file (relative to WORK_DIR) contains the text.
function(contains file text)
  file(READ "${WORK_DIR}/${file}" content)
  string(FIND "${content}" "${text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file} does not contain '${text}'")
  endif()
endfunction()

# kernel_variants(<table> <out>): the variants of kernel table <table>
# (reram or rl) that `autohet_cli kernels` lists as supported on this host
# (portable among them).
function(kernel_variants table out)
  run("${CLI}" kernels)
  string(REGEX MATCHALL "\\| ${table} +\\| [a-z0-9]+ +\\| yes " rows
         "${OUTPUT}")
  set(variants)
  foreach(row IN LISTS rows)
    string(REGEX REPLACE "^\\| ${table} +\\| ([a-z0-9]+) .*" "\\1" variant
           "${row}")
    list(APPEND variants ${variant})
  endforeach()
  if(NOT "portable" IN_LIST variants)
    message(FATAL_ERROR "no supported ${table} variants listed:\n${OUTPUT}")
  endif()
  set(${out} ${variants} PARENT_SCOPE)
endfunction()

set(sweep_baseline "${SOURCE_DIR}/bench/BENCH_baseline/BENCH_fault_sweep.json")
set(fixture_plan "${SOURCE_DIR}/tests/data/plan_v1_lenet5.json")
if(CASE STREQUAL "fault_sweep_pooled")
  run("${FAULT_SWEEP}" 20)
  same(BENCH_fault_sweep.json "${sweep_baseline}")
elseif(CASE STREQUAL "fault_sweep_serial")
  run("${FAULT_SWEEP}" 20 1)
  same(BENCH_fault_sweep.json "${sweep_baseline}")
elseif(CASE MATCHES "^fault_sweep_adaptive_(pooled|serial)$")
  set(pooled ON)
  set(threads 0)
  if(CMAKE_MATCH_1 STREQUAL "serial")
    set(pooled OFF)
    set(threads 1)
  endif()
  run("${FAULT_SWEEP}" 20 ${threads} adaptive)
  same(BENCH_fault_sweep_adaptive.json
       "${SOURCE_DIR}/bench/BENCH_baseline/BENCH_fault_sweep_adaptive.json")
  if(EXISTS "${WORK_DIR}/BENCH_fault_sweep.json")
    message(FATAL_ERROR "the adaptive sweep wrote BENCH_fault_sweep.json")
  endif()
  if(pooled)
    file(READ "${WORK_DIR}/BENCH_fault_sweep_adaptive.json" adaptive)
    file(READ "${sweep_baseline}" fixed)
    string(JSON mode GET "${adaptive}" budget mode)
    if(NOT mode STREQUAL "adaptive")
      message(FATAL_ERROR "adaptive sweep budget mode is '${mode}'")
    endif()
    string(JSON savings GET "${adaptive}" mc_savings_ratio)
    if(savings LESS 3)
      message(FATAL_ERROR "adaptive mc_savings_ratio ${savings} < 3")
    endif()
    string(JSON min_trials GET "${adaptive}" budget min_trials)
    string(JSON series LENGTH "${fixed}" series)
    string(JSON adaptive_series LENGTH "${adaptive}" series)
    if(NOT series EQUAL adaptive_series)
      message(FATAL_ERROR "${adaptive_series} adaptive series, ${series} fixed")
    endif()
    math(EXPR last_series "${series} - 1")
    foreach(s RANGE ${last_series})
      foreach(key name tile_shapes)
        string(JSON want GET "${fixed}" series ${s} ${key})
        string(JSON got GET "${adaptive}" series ${s} ${key})
        if(NOT got STREQUAL want)
          message(FATAL_ERROR "series ${s} ${key}: adaptive ${got}, "
                              "fixed ${want}")
        endif()
      endforeach()
      string(JSON points LENGTH "${fixed}" series ${s} points)
      string(JSON adaptive_points LENGTH "${adaptive}" series ${s} points)
      if(NOT points EQUAL adaptive_points)
        message(FATAL_ERROR "series ${s}: ${adaptive_points} adaptive "
                            "points, ${points} fixed")
      endif()
      math(EXPR last_point "${points} - 1")
      foreach(p RANGE ${last_point})
        set(at "series ${s} point ${p}")
        string(JSON rate GET "${fixed}" series ${s} points ${p} stuck_rate)
        if(rate EQUAL 0)
          string(JSON trials_run GET "${adaptive}"
                 series ${s} points ${p} mc_trials_run)
          if(NOT trials_run EQUAL min_trials)
            message(FATAL_ERROR "${at}: zero stuck rate ran ${trials_run} "
                                "trials, not min_trials ${min_trials}")
          endif()
        endif()
        foreach(doc fixed adaptive)
          foreach(bound lower upper)
            string(JSON ${doc}_${bound} GET "${${doc}}"
                   series ${s} points ${p} accuracy_ci_${bound})
          endforeach()
        endforeach()
        if(fixed_lower GREATER adaptive_upper OR
           adaptive_lower GREATER fixed_upper)
          message(FATAL_ERROR "${at}: adaptive CI [${adaptive_lower}, "
                              "${adaptive_upper}] misses fixed CI "
                              "[${fixed_lower}, ${fixed_upper}]")
        endif()
      endforeach()
    endforeach()
  endif()
elseif(CASE STREQUAL "serving_sim_threads")
  foreach(tag first second threads0)
    set(extra)
    if(tag STREQUAL "threads0")
      set(extra --threads 0)
    endif()
    run("${SERVING_SIM}" 500 ${extra})
    file(RENAME "${WORK_DIR}/BENCH_serving.json"
         "${WORK_DIR}/serving_${tag}.json")
  endforeach()
  same(serving_first.json serving_second.json)
  same(serving_first.json serving_threads0.json)
  foreach(threads 1 0)
    run("${SERVING_SIM}" --threads ${threads})
    same(BENCH_serving.json
         "${SOURCE_DIR}/bench/BENCH_baseline/BENCH_serving.json")
  endforeach()
  file(READ "${WORK_DIR}/serving_first.json" doc)
  string(JSON format GET "${doc}" format)
  string(JSON version GET "${doc}" version)
  if(NOT format STREQUAL "autohet-serving" OR NOT version EQUAL 1)
    message(FATAL_ERROR "BENCH_serving.json is '${format}' v${version}")
  endif()
  string(JSON previous GET "${doc}" totals latency_ms p50)
  if(NOT previous GREATER 0)
    message(FATAL_ERROR "latency p50 ${previous} is not positive")
  endif()
  foreach(key p95 p99 max)
    string(JSON ms GET "${doc}" totals latency_ms ${key})
    if(ms LESS previous)
      message(FATAL_ERROR "latency ${key} ${ms} is below ${previous}")
    endif()
    set(previous ${ms})
  endforeach()
  string(JSON qps GET "${doc}" totals sustained_qps)
  if(NOT qps GREATER 0)
    message(FATAL_ERROR "sustained_qps ${qps} is not positive")
  endif()
  string(JSON models LENGTH "${doc}" models)
  math(EXPR last "${models} - 1")
  foreach(key requests swap_ins)
    set(sum 0)
    foreach(m RANGE ${last})
      string(JSON n GET "${doc}" models ${m} ${key})
      math(EXPR sum "${sum} + ${n}")
    endforeach()
    string(JSON total GET "${doc}" totals ${key})
    if(NOT total EQUAL sum)
      message(FATAL_ERROR "total ${key} ${total} != per-model sum ${sum}")
    endif()
  endforeach()
  string(JSON swaps GET "${doc}" totals swap_ins)
  if(NOT swaps GREATER models)
    message(FATAL_ERROR "${swaps} swap-ins for ${models} models: no pressure")
  endif()
elseif(CASE STREQUAL "paper_results")
  execute_process(COMMAND "${PAPER_RESULTS}" --episodes 20
                  WORKING_DIRECTORY "${WORK_DIR}" RESULT_VARIABLE rc
                  OUTPUT_FILE "${WORK_DIR}/paper_results_e20.txt"
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_results --episodes 20 exited with ${rc}\n${err}")
  endif()
  same(paper_results_e20.txt
       "${SOURCE_DIR}/bench/BENCH_baseline/paper_results_e20.txt")
elseif(CASE STREQUAL "functional_throughput")
  run("${FUNCTIONAL_THROUGHPUT}" 1 8)
  file(READ "${WORK_DIR}/BENCH_functional_throughput.json" doc)
  string(JSON identical GET "${doc}" mc_reports_identical)
  if(NOT identical)
    message(FATAL_ERROR "mc_reports_identical is ${identical}")
  endif()
  string(JSON workload GET "${doc}" monte_carlo workload)
  if(NOT workload STREQUAL "fault_sweep")
    message(FATAL_ERROR "monte_carlo workload is '${workload}'")
  endif()
  string(JSON configs LENGTH "${doc}" monte_carlo configs)
  if(NOT configs EQUAL 3)
    message(FATAL_ERROR "${configs} Monte-Carlo configs, not 3")
  endif()
  foreach(c RANGE 2)
    string(JSON identical GET "${doc}" monte_carlo configs ${c}
           reports_identical)
    if(NOT identical)
      message(FATAL_ERROR "config ${c} reports differ from the oracle")
    endif()
  endforeach()
  string(JSON speedup GET "${doc}" mc_speedup)
  if(speedup LESS 1.5)
    message(FATAL_ERROR "mc_speedup ${speedup} < 1.5")
  endif()
  string(JSON kernels LENGTH "${doc}" kernels)
  math(EXPR last "${kernels} - 1")
  foreach(k RANGE ${last})
    string(JSON speedup GET "${doc}" kernels ${k} speedup)
    if(NOT speedup GREATER 1.0)
      message(FATAL_ERROR "kernel ${k} speedup ${speedup} <= 1")
    endif()
  endforeach()
  # Dispatch: the selected variant is a supported one, and every supported
  # variant was timed and byte-checked.
  # names(<var> <path>... <field>): the sorted distinct <field> values of
  # the objects in the array at <path>.
  function(names var)
    set(path ${ARGN})
    list(POP_BACK path field)
    string(JSON n LENGTH "${doc}" ${path})
    math(EXPR last "${n} - 1")
    set(out)
    foreach(i RANGE ${last})
      string(JSON name GET "${doc}" ${path} ${i} ${field})
      list(APPEND out "${name}")
    endforeach()
    list(REMOVE_DUPLICATES out)
    list(SORT out)
    set(${var} "${out}" PARENT_SCOPE)
  endfunction()
  string(JSON selected GET "${doc}" dispatch selected)
  string(JSON n LENGTH "${doc}" dispatch supported)
  math(EXPR last "${n} - 1")
  set(supported)
  foreach(i RANGE ${last})
    string(JSON name GET "${doc}" dispatch supported ${i})
    list(APPEND supported "${name}")
  endforeach()
  list(SORT supported)
  if(NOT selected IN_LIST supported)
    message(FATAL_ERROR "selected '${selected}' not in '${supported}'")
  endif()
  names(timed dispatch variants name)
  names(checked monte_carlo variant_checks variant)
  if(NOT timed STREQUAL supported OR NOT checked STREQUAL supported)
    message(FATAL_ERROR "timed '${timed}', checked '${checked}', "
                        "supported '${supported}'")
  endif()
  string(JSON checks LENGTH "${doc}" monte_carlo variant_checks)
  math(EXPR last "${checks} - 1")
  foreach(i RANGE ${last})
    string(JSON identical GET "${doc}" monte_carlo variant_checks ${i}
           reports_identical)
    if(NOT identical)
      message(FATAL_ERROR "variant check ${i} differs from the oracle")
    endif()
  endforeach()
  # The bench hard-fails per config at 1.05x after a retry; the aggregate
  # allows the same single-rep noise margin.
  string(JSON ratio GET "${doc}" parallel_vs_serial)
  if(ratio GREATER 1.05)
    message(FATAL_ERROR "parallel_vs_serial ${ratio} > 1.05")
  endif()
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
  foreach(threads 1 4)
    run("${CLI}" replay --plan-in cifar_v2.json --mc-trials 3
        --mc-threads ${threads})
    set(mc_${threads} "${OUTPUT}")
  endforeach()
  if(NOT mc_1 MATCHES "robustness MC")
    message(FATAL_ERROR "replay printed no robustness MC:\n${mc_1}")
  endif()
  if(NOT mc_1 STREQUAL mc_4)
    message(FATAL_ERROR "MC replay differs across threads:\n${mc_1}\n${mc_4}")
  endif()
elseif(CASE STREQUAL "plan_roundtrip")
  run("${CLI}" search --model lenet5 --episodes 20 --plan-out plan.json
      --report-json search_report.json)
  run("${CLI}" replay --plan-in plan.json --report-json replay1.json)
  run("${CLI}" replay --plan-in plan.json --report-json replay2.json)
  same(search_report.json replay1.json)
  same(search_report.json replay2.json)
  run_fails("--plan-in cannot be combined with --episodes"
            "${CLI}" replay --plan-in plan.json --episodes 5)
  file(READ "${fixture_plan}" fixture)
  foreach(key read_sigma drift_time_s drift_nu)
    string(REPLACE "\"${key}\": 0," "\"${key}\": 0.1," drifted "${fixture}")
    file(WRITE "${WORK_DIR}/${key}.json" "${drifted}")
    run_fails("JSON key '${key}' must be 0"
              "${CLI}" replay --plan-in ${key}.json)
  endforeach()
elseif(CASE STREQUAL "replay_mc_threads")
  foreach(threads 1 4)
    run("${CLI}" replay --plan-in "${fixture_plan}" --mc-trials 1
        --mc-threads ${threads})
    set(mc_${threads} "${OUTPUT}")
  endforeach()
  if(NOT mc_1 MATCHES "robustness MC")
    message(FATAL_ERROR "replay printed no robustness MC:\n${mc_1}")
  endif()
  if(NOT mc_1 STREQUAL mc_4)
    message(FATAL_ERROR "MC replay differs across threads:\n${mc_1}\n${mc_4}")
  endif()
elseif(CASE STREQUAL "profile_threads")
  foreach(threads 1 4)
    run("${CLI}" profile --plan-in "${fixture_plan}" --functional-samples 2
        --mc-trials 2 --mc-threads ${threads}
        --profile-out profile_${threads}.json)
  endforeach()
  same(profile_1.json profile_4.json)
  file(READ "${WORK_DIR}/profile_1.json" doc)
  string(JSON format GET "${doc}" format)
  string(JSON version GET "${doc}" version)
  if(NOT format STREQUAL "autohet-profile" OR NOT version EQUAL 1)
    message(FATAL_ERROR "profile.json is '${format}' v${version}")
  endif()
  foreach(key totals schedule counters layers tiles timeline)
    string(JSON type ERROR_VARIABLE missing TYPE "${doc}" ${key})
    if(missing)
      message(FATAL_ERROR "profile.json has no '${key}': ${missing}")
    endif()
  endforeach()
  string(JSON trials GET "${doc}" counters mc_trials)
  string(JSON mvms GET "${doc}" counters functional_mvms)
  string(JSON writes GET "${doc}" counters program_writes)
  if(NOT trials EQUAL 2 OR NOT mvms GREATER 0 OR NOT writes EQUAL 61470)
    message(FATAL_ERROR "profile counters: ${trials} MC trials, ${mvms} "
                        "functional MVMs, ${writes} program writes")
  endif()
  # The Monte-Carlo programs no deployment: every per-crossbar and per-tile
  # write count equals the profile without it.
  run("${CLI}" profile --plan-in "${fixture_plan}" --functional-samples 2
      --profile-out profile_no_mc.json)
  file(READ "${WORK_DIR}/profile_no_mc.json" no_mc)
  string(JSON tiles GET "${doc}" tiles)
  string(JSON tiles_no_mc GET "${no_mc}" tiles)
  if(NOT tiles STREQUAL tiles_no_mc)
    message(FATAL_ERROR "the Monte-Carlo changed the tile profile")
  endif()
  string(JSON layers LENGTH "${doc}" layers)
  math(EXPR last "${layers} - 1")
  foreach(l RANGE ${last})
    string(JSON bottleneck GET "${doc}" layers ${l} bottleneck)
    if(NOT bottleneck MATCHES "^(compute|adc|noc)$")
      message(FATAL_ERROR "layer ${l} bottleneck is '${bottleneck}'")
    endif()
    foreach(key program_writes crossbar_program_writes)
      string(JSON with GET "${doc}" layers ${l} ${key})
      string(JSON without GET "${no_mc}" layers ${l} ${key})
      if(NOT with STREQUAL without)
        message(FATAL_ERROR "layer ${l} ${key}: ${with} with the "
                            "Monte-Carlo, ${without} without")
      endif()
    endforeach()
  endforeach()
  # The occupancy timeline starts busy at t=0 and drains to zero.
  string(JSON points LENGTH "${doc}" timeline)
  math(EXPR last "${points} - 1")
  string(JSON t0 GET "${doc}" timeline 0 0)
  string(JSON busy0 GET "${doc}" timeline 0 1)
  string(JSON busy_end GET "${doc}" timeline ${last} 1)
  if(NOT t0 EQUAL 0 OR NOT busy0 GREATER 0 OR NOT busy_end EQUAL 0)
    message(FATAL_ERROR "timeline starts (${t0}, ${busy0}) and ends at "
                        "${busy_end}")
  endif()
elseif(CASE STREQUAL "serve_replay")
  set(serve "${CLI}" serve --plan-in "${fixture_plan}"
      --plan-in "${fixture_plan}")
  run(${serve} --requests 300 --traffic-profile diurnal
      --serving-json serve_a.json --traffic-out traffic.json)
  run(${serve} --requests 300 --traffic-profile diurnal
      --serving-json serve_b.json)
  run(${serve} --serve-threads 0 --traffic-in traffic.json
      --serving-json serve_replay.json)
  same(serve_a.json serve_b.json)
  same(serve_a.json serve_replay.json)
  if(OBS)
    # Telemetry leaves the report alone; the Chrome trace carries the
    # queue-depth counter track and the profiler records the swap-ins.
    run(${serve} --requests 300 --traffic-profile diurnal
        --serving-json serve_obs.json --trace-out serve_trace.json
        --profile-out serve_profile.json)
    same(serve_a.json serve_obs.json)
    file(READ "${WORK_DIR}/serve_trace.json" text)
    string(JSON type ERROR_VARIABLE json_error TYPE "${text}")
    if(json_error)
      message(FATAL_ERROR "serve_trace.json is not valid JSON: ${json_error}")
    endif()
    contains(serve_trace.json serve_queue_depth)
    contains(serve_profile.json "\"model_swap\"")
  endif()
elseif(CASE STREQUAL "serve_flags")
  set(serve "${CLI}" serve --plan-in "${fixture_plan}"
      --plan-in "${fixture_plan}" --plan-in "${fixture_plan}")
  # Each fixture tenant takes 3 tiles alone, so a budget of 6 cannot hold
  # all three and every miss swaps.
  foreach(variant default seed|--traffic-seed|7 zipf|--zipf|0
                  max_wait|--max-wait-us|50 capacity|--tile-capacity|6
                  eviction|--eviction|lfu sharing|--sharing|none
                  capacity_lfu|--tile-capacity|6|--eviction|lfu
                  capacity_unshared|--tile-capacity|6|--sharing|none)
    string(REPLACE "|" ";" flags "${variant}")
    list(POP_FRONT flags name)
    run(${serve} ${flags} --serving-json ${name}.json)
    if(NOT name STREQUAL "default")
      differ(default.json ${name}.json)
    endif()
  endforeach()
  file(READ "${WORK_DIR}/capacity.json" doc)
  string(JSON base_totals GET "${doc}" totals)
  foreach(name capacity_lfu capacity_unshared)
    file(READ "${WORK_DIR}/${name}.json" doc)
    string(JSON totals GET "${doc}" totals)
    if(totals STREQUAL base_totals)
      message(FATAL_ERROR "${name}.json has the totals of capacity.json")
    endif()
  endforeach()
  run_fails("unknown eviction policy: fifo"
            ${serve} --eviction fifo --serving-json bad_eviction.json)
  run_fails("unknown sharing scope: all"
            ${serve} --sharing all --serving-json bad_sharing.json)
  foreach(name bad_eviction bad_sharing)
    if(EXISTS "${WORK_DIR}/${name}.json")
      message(FATAL_ERROR "a rejected serve wrote ${name}.json")
    endif()
  endforeach()
elseif(CASE STREQUAL "search_shapes")
  run("${CLI}" search --model lenet5 --episodes 5)
  # LeNet5 has five mappable layers.
  string(REGEX MATCHALL "  L[0-9]+: [0-9]+x[0-9]+\n" rows "${OUTPUT}")
  list(LENGTH rows count)
  if(NOT OUTPUT MATCHES "best strategy for LeNet5:\n  L1: [0-9]+x[0-9]+\n"
     OR NOT count EQUAL 5)
    message(FATAL_ERROR "search printed no per-layer shapes:\n${OUTPUT}")
  endif()
  run_fails("unknown command: evaluate" "${CLI}" evaluate)
  run_fails("unknown option: --out"
            "${CLI}" search --model lenet5 --episodes 5 --out strategy.txt)
elseif(CASE STREQUAL "search_flags")
  set(search "${CLI}" search --model lenet5 --episodes 8)
  run(${search} --candidates square --plan-out square.json --csv h.csv)
  string(REGEX MATCHALL "  L[0-9]+: [0-9]+x[0-9]+\n" rows "${OUTPUT}")
  list(LENGTH rows count)
  if(NOT count EQUAL 5)
    message(FATAL_ERROR "search printed no per-layer shapes:\n${OUTPUT}")
  endif()
  foreach(row IN LISTS rows)
    if(NOT row MATCHES ": ([0-9]+)x([0-9]+)"
       OR NOT CMAKE_MATCH_1 EQUAL CMAKE_MATCH_2)
      message(FATAL_ERROR "--candidates square chose a non-square shape:\n"
                          "${OUTPUT}")
    endif()
  endforeach()
  run(${search} --candidates hybrid --plan-out hybrid.json)
  differ(square.json hybrid.json)
  file(STRINGS "${WORK_DIR}/h.csv" csv_lines)
  list(LENGTH csv_lines csv_count)
  list(GET csv_lines 0 csv_header)
  if(NOT csv_header STREQUAL "episode,reward,utilization,energy_nj,rue"
     OR NOT csv_count EQUAL 9)
    message(FATAL_ERROR "h.csv is not a header plus 8 episode rows:\n"
                        "${csv_lines}")
  endif()
  run_fails("unknown candidate set: bogus"
            ${search} --candidates bogus --plan-out bogus.json)
  if(EXISTS "${WORK_DIR}/bogus.json")
    message(FATAL_ERROR "an unknown candidate set still wrote a plan")
  endif()
elseif(CASE STREQUAL "negative_counts")
  set(replay "${CLI}" replay --plan-in "${fixture_plan}")
  set(serve "${CLI}" serve --plan-in "${fixture_plan}")
  set(search "${CLI}" search --model lenet5)
  run_rejected("unknown option: --eval-threads"
               "${CLI}" baselines --model lenet5 --eval-threads 2)
  run_rejected("option --serve-threads must be an integer >= 0: -2"
               ${serve} --serve-threads -2)
  run_rejected("option --top must be an integer >= 0: -1"
               "${CLI}" profile --plan-in "${fixture_plan}" --top -1)
  run_rejected("option --functional-samples must be an integer >= 0: -2"
               ${replay} --functional-samples -2)
  run_rejected("option --qps must be non-negative: -5" ${serve} --qps -5)
  run_rejected("option --pes-per-tile must be an integer >= 1: 0"
               ${search} --pes-per-tile 0)
  run_rejected("option --pes-per-tile must be an integer >= 1: -1"
               ${search} --pes-per-tile -1)
  run_rejected("option --episodes must be an integer >= 1: 99999999999"
               ${search} --episodes 99999999999)
  run_rejected("option --requests must be an integer >= 1: 0"
               ${serve} --requests 0)
  run_rejected("option --batch must be an integer >= 1: 0"
               "${CLI}" profile --plan-in "${fixture_plan}" --batch 0)
  run_rejected("option --max-batch must be an integer >= 1: 0"
               ${serve} --max-batch 0)
elseif(CASE STREQUAL "kernel_env")
  run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=portable "${CLI}" kernels)
  foreach(table reram rl)
    if(NOT OUTPUT MATCHES "\\| ${table} +\\| portable +\\| yes +\\| yes +\\|")
      message(FATAL_ERROR "portable is not active for ${table}:\n${OUTPUT}")
    endif()
  endforeach()
  run_fails("unknown kernel variant 'neon'"
            "${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=neon "${CLI}" kernels)
elseif(CASE STREQUAL "reram_dispatch")
  kernel_variants(reram variants)
  foreach(variant IN LISTS variants)
    run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=${variant} "${TEST_KERNELS}"
        --gtest_filter=-AllVariants/*)
  endforeach()
elseif(CASE STREQUAL "fault_sweep_variants")
  kernel_variants(reram variants)
  foreach(variant IN LISTS variants)
    message(STATUS "fault_sweep under AUTOHET_KERNEL=${variant}")
    run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=${variant} "${FAULT_SWEEP}" 20)
    same(BENCH_fault_sweep.json "${sweep_baseline}")
    run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=${variant} "${FAULT_SWEEP}" 20
        0 adaptive)
    same(BENCH_fault_sweep_adaptive.json
         "${SOURCE_DIR}/bench/BENCH_baseline/BENCH_fault_sweep_adaptive.json")
    file(REMOVE "${WORK_DIR}/BENCH_fault_sweep.json"
         "${WORK_DIR}/BENCH_fault_sweep_adaptive.json")
  endforeach()
elseif(CASE STREQUAL "rl_dispatch")
  kernel_variants(rl variants)
  foreach(variant IN LISTS variants)
    run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=${variant} "${CLI}" kernels)
    if(NOT OUTPUT MATCHES "\\| rl +\\| ${variant} +\\| yes +\\| yes +\\|")
      message(FATAL_ERROR "${variant} is not active for rl:\n${OUTPUT}")
    endif()
    run("${CMAKE_COMMAND}" -E env AUTOHET_KERNEL=${variant} "${TEST_MLP}")
  endforeach()
elseif(CASE STREQUAL "bench_args")
  run_fails("argument <budget> must be fixed or adaptive: adaptiv"
            "${FAULT_SWEEP}" 20 1 adaptiv --metrics-out m.prom)
  run_fails("argument <episodes> must be an integer >= 1: abc"
            "${FAULT_SWEEP}" abc)
  run_fails("argument <mc_threads> must be an integer >= 0: -1"
            "${FAULT_SWEEP}" 20 -1)
  run_fails("--kernel: unknown kernel variant 'neon'"
            "${FAULT_SWEEP}" 20 --kernel neon)
  run_fails("option --threads must be an integer >= 0: -3"
            "${SERVING_SIM}" --threads -3)
  run_fails("option --threads needs a value" "${SERVING_SIM}" 500 --threads)
  run_fails("argument <section> must be all, fig03_motivation, "
            "${PAPER_RESULTS}" fig99_unknown --metrics-out m.prom)
  run_fails("option --episodes must be an integer >= 1: 0"
            "${PAPER_RESULTS}" --episodes 0 --metrics-out m.prom)
  file(GLOB artifacts "${WORK_DIR}/*")
  if(artifacts)
    message(FATAL_ERROR "a rejected command wrote ${artifacts}")
  endif()
  run("${PAPER_RESULTS}" search_convergence --episodes 40
      --trace-out bench_trace.json --metrics-out bench_metrics.prom)
  file(READ "${WORK_DIR}/bench_trace.json" text)
  string(JSON type ERROR_VARIABLE json_error TYPE "${text}")
  if(json_error)
    message(FATAL_ERROR "bench_trace.json is not valid JSON: ${json_error}")
  endif()
  contains(bench_metrics.prom autohet_eval_cache_misses_total)
elseif(CASE STREQUAL "telemetry")
  run("${CLI}" search --model lenet5 --episodes 20 --trace-out trace.json
      --metrics-out metrics.prom --episode-log episodes.jsonl)
  run("${CLI}" baselines --model lenet5
      --trace-out baselines_trace.json --metrics-out baselines_metrics.prom)
  run("${CLI}" replay --plan-in "${fixture_plan}" --mc-trials 2
      --mc-threads 2 --trace-out replay_trace.json
      --metrics-out replay_metrics.prom)
  foreach(trace trace.json baselines_trace.json replay_trace.json)
    file(READ "${WORK_DIR}/${trace}" text)
    string(JSON type ERROR_VARIABLE json_error TYPE "${text}")
    if(json_error)
      message(FATAL_ERROR "${trace} is not valid JSON: ${json_error}")
    endif()
  endforeach()
  file(STRINGS "${WORK_DIR}/episodes.jsonl" lines)
  list(LENGTH lines count)
  if(NOT count EQUAL 20)
    message(FATAL_ERROR "episodes.jsonl has ${count} lines, not 20")
  endif()
  foreach(line IN LISTS lines)
    string(JSON type ERROR_VARIABLE json_error TYPE "${line}")
    if(json_error)
      message(FATAL_ERROR "bad episodes.jsonl line: ${json_error}\n${line}")
    endif()
  endforeach()
  contains(trace.json "\"name\":\"episode\"")
  contains(trace.json "\"name\":\"tile_shared_remap\"")
  contains(baselines_trace.json "\"name\":\"homogeneous_sweep\"")
  contains(replay_trace.json "\"name\":\"pool_task\"")
  foreach(series autohet_eval_cache_hits_total autohet_eval_cache_misses_total
                 autohet_search_episode_reward)
    contains(metrics.prom "${series}")
  endforeach()
  contains(replay_metrics.prom autohet_pool_queue_depth)
elseif(CASE STREQUAL "fault_telemetry")
  run("${FAULT_SWEEP}" 20 --metrics-out fault_metrics.prom
      --trace-out fault_trace.json)
  same(BENCH_fault_sweep.json "${sweep_baseline}")
  file(READ "${WORK_DIR}/BENCH_fault_sweep.json" doc)
  string(JSON series LENGTH "${doc}" series)
  if(series LESS 2)
    message(FATAL_ERROR "need AutoHet + a homogeneous baseline series")
  endif()
  math(EXPR last_series "${series} - 1")
  foreach(s RANGE ${last_series})
    string(JSON points LENGTH "${doc}" series ${s} points)
    math(EXPR last_point "${points} - 1")
    set(rates)
    set(bits)
    foreach(p RANGE ${last_point})
      string(JSON rate GET "${doc}" series ${s} points ${p} stuck_rate)
      string(JSON b GET "${doc}" series ${s} points ${p} cell_bits)
      list(APPEND rates "${rate}")
      list(APPEND bits "${b}")
    endforeach()
    list(REMOVE_DUPLICATES rates)
    list(REMOVE_DUPLICATES bits)
    list(LENGTH rates n_rates)
    list(LENGTH bits n_bits)
    if(n_rates LESS 3 OR n_bits LESS 2)
      message(FATAL_ERROR "series ${s} sweeps rates '${rates}' bits '${bits}'")
    endif()
  endforeach()
  file(READ "${WORK_DIR}/fault_trace.json" text)
  string(JSON type ERROR_VARIABLE json_error TYPE "${text}")
  if(json_error)
    message(FATAL_ERROR "fault_trace.json is not valid JSON: ${json_error}")
  endif()
  contains(fault_trace.json "\"name\":\"mc_robustness\"")
  foreach(series autohet_fault_cells_total autohet_fault_stuck_cells_total
                 autohet_fault_trials_total
                 autohet_fault_trial_agreement_permille
                 autohet_fault_accuracy_mean)
    contains(fault_metrics.prom "${series}")
  endforeach()
else()
  message(FATAL_ERROR "unknown e2e case '${CASE}'")
endif()
