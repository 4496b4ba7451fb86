# Export one workload's event stream as a Chrome trace and check the
# exporter's invariants on it:
#   cmake -DBENCH=<machvm_bench> -DWORKLOAD=<name> -DPYTHON=<python3>
#         -DANALYZE=<tools/trace_analyze.py> -DOUT=<file> -P <this>
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
