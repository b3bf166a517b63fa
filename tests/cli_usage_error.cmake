# Runs `${CLI} ${ARGS}` and passes iff it exits 2 after exactly one
# diagnostic line matching DIAG, followed by the usage text.
#
#   cmake -DCLI=path/to/sasta -DARGS="--flag value c17" -DDIAG=regex \
#         -P cli_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, want 2:\n${err}")
endif()
string(FIND "${err}" "usage:" usage_at)
if(usage_at LESS 0)
  message(FATAL_ERROR "no usage text after the diagnostic:\n${err}")
endif()
string(SUBSTRING "${err}" 0 ${usage_at} diag)
string(REGEX MATCHALL "\n" lines "${diag}")
list(LENGTH lines n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "want one diagnostic line, got ${n}:\n${err}")
endif()
if(NOT diag MATCHES "${DIAG}")
  message(FATAL_ERROR "diagnostic does not match '${DIAG}':\n${err}")
endif()
