# Runs EXE with the arguments that follow `--` and checks its exit code,
# and that its stdout / stderr match the given regexes (ctest alone tells
# only zero from non-zero).
#
#   cmake -DEXE=<program> -DEXPECT_RC=<code>
#         [-DEXPECT_STDOUT=<regex>] [-DEXPECT_STDERR=<regex>]
#         -P expect_run.cmake -- [<argument>...]
set(args)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
list(JOIN args " " shown)
set(report "${EXE} ${shown}\n--- stdout\n${out}--- stderr\n${err}")
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_RC}: ${report}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}': ${report}")
endif()
if(DEFINED EXPECT_STDERR AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}': ${report}")
endif()
