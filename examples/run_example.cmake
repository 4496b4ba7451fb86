# Run one example (-DEXAMPLE=<path>); fail unless it exits 0 and its
# last line of output is "done.".
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(STRIP "${out}" stripped)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${rc}\n${out}${err}")
elseif(NOT stripped MATCHES "(^|\n)done\\.$")
    message(FATAL_ERROR "${EXAMPLE}: last line is not \"done.\"\n${out}")
endif()
message("${out}")
