# Fails when a gtest binary lists different test ids on two runs. gtest
# prints a value parameter that has no PrintTo as its raw bytes, and the
# ctest id embeds them. A pointer among those bytes moves with every run
# under address-space randomisation, so the ids registered at build time
# would differ from the next build's. (Padding bytes can repeat from run
# to run; parameter structs keep them out with static_asserts.)
#
#   cmake -DTESTS=<exe>|<exe>|... -P check_test_ids.cmake
string(REPLACE "|" ";" TESTS "${TESTS}")
list(LENGTH TESTS n)
if(n EQUAL 0)
  message(FATAL_ERROR "no test binaries given")
endif()
foreach(exe IN LISTS TESTS)
  foreach(run 1 2)
    execute_process(COMMAND "${exe}" --gtest_list_tests
                    OUTPUT_VARIABLE ids${run}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${exe} --gtest_list_tests exited ${rc}")
    endif()
  endforeach()
  if(NOT ids1 STREQUAL ids2)
    message(FATAL_ERROR "${exe} lists different test ids on two runs:\n"
                        "--- run 1\n${ids1}--- run 2\n${ids2}")
  endif()
endforeach()
message(STATUS "${n} test binaries list the same ids on two runs")
