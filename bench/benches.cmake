# One binary per paper table/figure plus ablation and micro benches.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY executables and the canonical loop
#   for b in build/bench/*; do $b; done
# runs exactly the benches.
function(ugcop_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ugcip steiner misdp cip ug
                        Threads::Threads)
  target_compile_definitions(${name}
                             PRIVATE UGCOP_SOURCE_DIR="${CMAKE_SOURCE_DIR}")
  set_target_properties(${name} PROPERTIES
                        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

ugcop_add_bench(table1_stp_shared)
ugcop_add_bench(table2_bip_restart)
ugcop_add_bench(table3_hc_racing)
ugcop_add_bench(table4_misdp_scaling)
ugcop_add_bench(fig1_racing_winners)
ugcop_add_bench(glue_loc_report)
ugcop_add_bench(ablation_stp_features)
ugcop_add_bench(ablation_ug_rampup)

# Glue-size gate for the paper's "< 200 lines of glue" claim (section 2.3):
# fails when a glue file grows past its cloc-style count recorded here
# (stp_plugins.cpp 55 LoC, misdp_plugins.cpp 50 LoC). Shrinking a file is
# fine; lower its cap in the same change.
add_test(NAME glue-loc
         COMMAND glue_loc_report stp_plugins.cpp=55 misdp_plugins.cpp=50)
set_tests_properties(glue-loc PROPERTIES LABELS glue)

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cpp)
set_target_properties(micro_kernels PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(micro_kernels PRIVATE ugcip ug misdp steiner sdp lp_oracle lp
                      linalg cip benchmark::benchmark Threads::Threads)
ugcop_add_bench(ablation_misdp_modes)

# Smoke-run the warm-resolve simplex bench under ctest (-L bench-smoke) and
# record the machine-readable numbers in BENCH_lp.json. Only BM_SimplexWarm
# runs here, the one family the bench-lp-regression guard below reads; the
# other simplex families (BM_SimplexCold, BM_SimplexWarmCut,
# BM_SimplexWarmDense, BM_SimplexBasisReload) stay runnable by hand with
# --benchmark_filter=BM_Simplex. RUN_SERIAL: its BM_SimplexWarm wall times
# feed the 15% guard, so they must not share the CPU with concurrently
# scheduled tests.
add_test(NAME bench-smoke
         COMMAND micro_kernels
                 --benchmark_filter=BM_SimplexWarm/
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_lp.json
                 --benchmark_out_format=json)
set_tests_properties(bench-smoke PROPERTIES LABELS bench-smoke
                     RUN_SERIAL TRUE)

# Warm-resolve regression guard: diff the BENCH_lp.json bench-smoke just
# produced against the committed baseline and fail on a >15% geometric-mean
# slowdown across the BM_SimplexWarm/<n> family (the warm-reoptimization
# path the LP kernel work targets). Requires a python3 on PATH; the
# FIXTURES pair guarantees bench-smoke ran first in the same ctest
# invocation.
find_package(Python3 COMPONENTS Interpreter QUIET)
if(Python3_Interpreter_FOUND)
  add_test(NAME bench-lp-regression
           COMMAND ${Python3_EXECUTABLE}
                   ${CMAKE_SOURCE_DIR}/bench/check_lp_regression.py
                   ${CMAKE_BINARY_DIR}/BENCH_lp.json
                   ${CMAKE_SOURCE_DIR}/bench/BENCH_lp_baseline.json)
  set_tests_properties(bench-smoke PROPERTIES
                       FIXTURES_SETUP bench-lp-json)
  set_tests_properties(bench-lp-regression PROPERTIES
                       LABELS bench-smoke
                       FIXTURES_REQUIRED bench-lp-json)
endif()

# Same smoke treatment for the Steiner cut separation engine: archives the
# engine-vs-per-terminal-rebuild comparison (with cuts / flow-solve /
# augmentation counters) in BENCH_stp.json.
add_test(NAME bench-smoke-stp
         COMMAND micro_kernels
                 --benchmark_filter=BM_StpSeparationRound.*
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_stp.json
                 --benchmark_out_format=json)
set_tests_properties(bench-smoke-stp PROPERTIES LABELS bench-smoke)

# LU factorization smoke: archives the refactorization of an optimal
# Steiner-cut basis and of a basis with dense eigenvector-cut rows, with
# the column entries each factorization touches, in BENCH_lu.json. No gate:
# the counter is deterministic and the wall times are for the record.
add_test(NAME bench-smoke-lu
         COMMAND micro_kernels
                 --benchmark_filter=BM_LuFactorize/
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_lu.json
                 --benchmark_out_format=json)
set_tests_properties(bench-smoke-lu PROPERTIES LABELS bench-smoke)

# Cut-pool smoke: archives the dominance-filter throughput (verdict-mix
# counters) and the root LP-rows-per-round comparison with the pool on vs
# off in BENCH_cutpool.json.
add_test(NAME bench-smoke-cutpool
         COMMAND micro_kernels
                 --benchmark_filter=BM_CutPool.*
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_cutpool.json
                 --benchmark_out_format=json)
set_tests_properties(bench-smoke-cutpool PROPERTIES LABELS bench-smoke)

# Cross-solver cut sharing smoke: archives the shared-pool vs isolated-pool
# ramp-up comparison (summed max-flow rounds, final dual bound, share
# pipeline counters) in BENCH_cutshare.json. SimEngine-deterministic. Only
# the dim-4 rows run here; the dim-5 rows stay runnable by hand with
# --benchmark_filter=BM_CutShareRampup/5/.
add_test(NAME bench-smoke-cutshare
         COMMAND micro_kernels
                 --benchmark_filter=BM_CutShareRampup/4/
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_cutshare.json
                 --benchmark_out_format=json)
set_tests_properties(bench-smoke-cutshare PROPERTIES
                     LABELS "bench-smoke;bench-smoke-cutshare")

# Reduced-cost-fixing smoke: archives the on/off comparison of the generic
# LP reduced-cost fixing + incremental reduction engine (B&B nodes, summed
# LP iterations, optimum, fixing counters) in BENCH_redfix.json. The
# sequential solver is deterministic, so the counters are exact. Only the
# dim-4 rows run here; the dim-5 rows (BM_RedcostFix/5/) stay runnable by
# hand with --benchmark_filter=BM_RedcostFix/5/.
add_test(NAME bench-smoke-redfix
         COMMAND micro_kernels
                 --benchmark_filter=BM_RedcostFix/4/
                 --benchmark_out=${CMAKE_BINARY_DIR}/BENCH_redfix.json
                 --benchmark_out_format=json)
# RUN_SERIAL: full branch-and-cut runs are heavy enough to skew the
# timing-gated bench-lp-regression guard when scheduled concurrently; the
# counters this bench archives are deterministic, so serializing costs
# nothing but scheduling.
set_tests_properties(bench-smoke-redfix PROPERTIES
                     LABELS "bench-smoke;bench-smoke-redfix"
                     RUN_SERIAL TRUE)
