# Export one workload's event stream as a Chrome trace, check the
# exporter's invariants on it, and require it to match the committed
# golden byte for byte (simulated time is deterministic, so any
# difference is a behaviour change):
#   cmake -DBENCH=<machvm_bench> -DWORKLOAD=<name> -DPYTHON=<python3>
#         -DANALYZE=<tools/trace_analyze.py> -DOUT=<file>
#         -DGOLDEN=<golden trace> -P <this>
# On a mismatch the trace_analyze.py --diff of golden and new is
# printed; once the change is intended, copy OUT over GOLDEN.
execute_process(COMMAND ${BENCH} ${WORKLOAD} --trace-out=${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${WORKLOAD} exited with ${rc}\n"
                        "${out}${err}")
endif()
execute_process(COMMAND ${PYTHON} ${ANALYZE} --self-check ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_analyze.py --self-check failed on ${OUT}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    execute_process(COMMAND ${PYTHON} ${ANALYZE} --diff ${GOLDEN} ${OUT})
    message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
