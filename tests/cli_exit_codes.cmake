# Exit-code checks on the astral-cli binary. Values the option grammar
# refuses must exit 1 promptly with an error, never run away: taken
# unchecked, `--lines=-1` wraps into a request for 4294967295 lines and a
# NaN bound can keep the analysis of a small program running without end.
# The top value of each bounded flag must finish. Every run here is bounded
# by a timeout, so such a regression fails instead of hanging the suite.
#
# The end-to-end smoke runs of the CLI live here too (exit 0 expected), so
# every build configuration that runs this test runs them, the
# ThreadSanitizer one included.
#
# Invoked by CTest as:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> -P cli_exit_codes.cmake

if(NOT DEFINED ASTRAL_CLI OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "ASTRAL_CLI and SOURCE_DIR must be defined")
endif()

set(EX ${SOURCE_DIR}/examples)
set(INPUT ${EX}/quickstart.cpp)
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

# The tops: the largest accepted value finishes, one more is refused.
expect(0 emit-family --lines=1000000)
expect(1 emit-family --lines=1000001)
expect(0 ${INPUT} --unroll 1000 --quiet)
expect(1 ${INPUT} --unroll 1001)

# End-to-end smoke: single files, batches, --jobs=0/4/8 and threaded
# programs.
expect(0 ${EX}/flight_control.cpp --dump-invariants --unroll=2)
expect(0 ${INPUT} --json --fail-on-alarms)
expect(0 ${EX}/rate_limiter_clocked.cpp --json --jobs=8 --fail-on-alarms)
expect(0 ${INPUT} ${EX}/interp_table.cpp --json --jobs=4)
expect(0 ${INPUT} ${EX}/interp_table.cpp ${EX}/rate_limiter_clocked.cpp
       --json --jobs=8)
expect(0 ${EX}/flight_control.cpp --json --jobs=0)
expect(0 ${EX}/flight_control.cpp --json --jobs=8)
expect(0 ${EX}/partitioned_switch.cpp --json --jobs=4)
expect(0 ${EX}/partitioned_switch.cpp --json --jobs=8 --dump-stats)
expect(0 ${EX}/thread_handoff.cpp ${EX}/thread_mode_table.cpp --json --jobs=4)
expect(0 ${EX}/thread_handoff.cpp ${EX}/thread_mode_table.cpp --json --jobs=8)

if(NFAILED GREATER 0)
  message(FATAL_ERROR "${NFAILED} exit-code check(s) failed")
endif()
message(STATUS "all exit-code checks passed")
