# Run every machvm_bench workload with --json and gate the records
# against the checked-in baselines:
#   cmake -DBENCH=<machvm_bench> -DPYTHON=<python3>
#         -DCHECK=<tools/check_bench.py> -DBASELINES=<bench/baselines>
#         -DOUT=<file> -P <this>
execute_process(COMMAND ${BENCH} --json ${OUT}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --json exited with ${rc}\n${out}${err}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECK} --baseline-dir ${BASELINES}
                        ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_bench.py failed on ${OUT}")
endif()
