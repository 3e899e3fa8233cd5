# Runs EXE with one argument ARG and checks its exit code, and that its
# stdout / stderr match the given regexes (ctest alone tells only zero
# from non-zero).
#
#   cmake -DEXE=<program> -DARG=<argument> -DEXPECT_RC=<code>
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         -P expect_run.cmake
execute_process(COMMAND "${EXE}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(report "${EXE} ${ARG}\n--- stdout\n${out}--- stderr\n${err}")
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_RC}: ${report}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}': ${report}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}': ${report}")
endif()
