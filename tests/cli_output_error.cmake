# Runs `${CLI} -q ${FLAG} ${PATH} c17` with PATH in a directory that does
# not exist and passes iff it exits 1 with "error: cannot write ${PATH}" on
# stderr and no "wrote ${PATH}" line on stdout.
#
#   cmake -DCLI=path/to/sasta -DFLAG=--metrics-json -DPATH=/no/dir/m.json \
#         -P cli_output_error.cmake
execute_process(COMMAND ${CLI} -q ${FLAG} ${PATH} c17
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "exit status ${rc}, want 1:\n${out}\n${err}")
endif()
string(FIND "${err}" "error: cannot write ${PATH}" diag_at)
if(diag_at LESS 0)
  message(FATAL_ERROR "no 'error: cannot write ${PATH}' on stderr:\n${err}")
endif()
string(FIND "${out}" "wrote ${PATH}" wrote_at)
if(NOT wrote_at LESS 0)
  message(FATAL_ERROR "claims to have written ${PATH}:\n${out}")
endif()
