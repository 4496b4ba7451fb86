# machvm_bench: one program runs every reproduced table and
# ablation (see DESIGN.md section 4).  It is the only output in
# build/bench/, so `build/bench/machvm_bench --json r.json` followed
# by tools/check_bench.py gates every simulated number.
add_executable(machvm_bench
    ${CMAKE_SOURCE_DIR}/bench/machvm_bench.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_report.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_table7_1.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_table7_2.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_shadow.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_map.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_ipt.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_shootdown.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_pagesize.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_pmapcopy.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_fault_ablation.cc
    ${CMAKE_SOURCE_DIR}/bench/bench_churn.cc)
target_link_libraries(machvm_bench PRIVATE machvm)
set_target_properties(machvm_bench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Host-time microbenchmarks (google-benchmark), kept out of
# build/bench/: they time the simulator, not the paper's numbers.
add_executable(bench_micro ${CMAKE_SOURCE_DIR}/bench/bench_micro.cc)
target_link_libraries(bench_micro PRIVATE machvm benchmark::benchmark)
