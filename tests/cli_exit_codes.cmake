# Exit-code checks on the astral-cli binary for values the option grammar
# refuses: each must exit 1 promptly with an error, never run away. Taken
# unchecked, `--lines=-1` wraps into a request for 4294967295 lines and a
# NaN bound can keep the analysis of a small program running without end,
# so every run here is bounded by a timeout: such a regression fails
# instead of hanging the suite.
#
# Invoked by CTest as:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> -P cli_exit_codes.cmake

if(NOT DEFINED ASTRAL_CLI OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "ASTRAL_CLI and SOURCE_DIR must be defined")
endif()

set(INPUT ${SOURCE_DIR}/examples/quickstart.cpp)
set(NFAILED 0)

# expect(<exit code> <args>...): runs astral-cli with <args>.
function(expect want)
  execute_process(COMMAND ${ASTRAL_CLI} ${ARGN}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc
                  TIMEOUT 20)
  if(NOT "${rc}" STREQUAL "${want}")
    message(SEND_ERROR "astral-cli ${ARGN}: exit '${rc}', want ${want}\n${err}")
    math(EXPR n "${NFAILED}+1")
    set(NFAILED ${n} PARENT_SCOPE)
  endif()
endfunction()

expect(1 emit-family --lines=-1)
expect(1 emit-family --seed=-1)
expect(1 ${INPUT} --clock-max nan)
expect(1 ${INPUT} --threshold nan)
expect(1 ${INPUT} --volatile speed=nan:10)
expect(1 ${INPUT} --unroll -1)
expect(0 ${INPUT} --unroll=2 --quiet)

if(NFAILED GREATER 0)
  message(FATAL_ERROR "${NFAILED} exit-code check(s) failed")
endif()
message(STATUS "all exit-code checks passed")
