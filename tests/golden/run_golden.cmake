# Golden-file end-to-end regression tests: run astral-cli over the
# examples/ inputs and diff the normalized JSON reports (alarm counts,
# invariant census, inferred ranges) against checked-in expectations.
#
# Each case then re-runs at --jobs=2 and --jobs=8, and the raw JSON must be
# byte-identical (after the same normalization) to the --jobs=1 report: the
# scheduler determinism guarantee of the parallel analyzer, covering the
# trace-partition dispatch and the interference rounds. The --jobs=8 run
# also dumps its statistics, and on partitioned_switch and thread_handoff
# the counter of the parallel path must be non-zero: byte-identity alone
# would also hold if those paths silently degenerated to sequential ones.
#
# Invoked by CTest as:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> [-DOUT_DIR=<dir>] \
#         -P run_golden.cmake
#
# Mismatching reports are saved under OUT_DIR (default: a golden-actual/
# directory next to the CLI binary, never the source tree).
#
# To regenerate expectations after an intended precision change:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> -DREGEN=1 -P run_golden.cmake

if(NOT DEFINED ASTRAL_CLI OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "ASTRAL_CLI and SOURCE_DIR must be defined")
endif()
if(NOT DEFINED OUT_DIR)
  get_filename_component(OUT_DIR ${ASTRAL_CLI} DIRECTORY)
  set(OUT_DIR ${OUT_DIR}/golden-actual)
endif()

set(CASES quickstart filter_verification alarm_investigation flight_control
          interp_table rate_limiter_clocked partitioned_switch
          thread_handoff thread_mode_table)
set(NFAILED 0)

# The --dump-stats counter that proves a case's parallel path ran.
set(LIVENESS_partitioned_switch parallel.partitions.dispatched)
set(LIVENESS_thread_handoff concurrency.rounds)

# Normalizes environment-dependent report fields (wall-clock, input path).
function(normalize_report in out)
  string(REGEX REPLACE "\"analysis_seconds\": [0-9.eE+-]+"
         "\"analysis_seconds\": \"<time>\"" in "${in}")
  string(REGEX REPLACE "\"file\": \"[^\"]*\"" "\"file\": \"<input>\""
         in "${in}")
  set(${out} "${in}" PARENT_SCOPE)
endfunction()

foreach(case ${CASES})
  set(input ${SOURCE_DIR}/examples/${case}.cpp)
  set(expected_file ${SOURCE_DIR}/tests/golden/${case}.expected.json)

  execute_process(COMMAND ${ASTRAL_CLI} ${input} --json --jobs=1
                  OUTPUT_VARIABLE actual
                  ERROR_VARIABLE stderr_out
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "[${case}] astral-cli exited with ${rc}:\n${stderr_out}")
    math(EXPR NFAILED "${NFAILED}+1")
    continue()
  endif()

  normalize_report("${actual}" actual)

  # Determinism under concurrency: the parallel reports must match the
  # sequential one byte for byte.
  foreach(jobs 2 8)
    set(stats_flag)
    if(jobs EQUAL 8)
      set(stats_flag --dump-stats)
    endif()
    execute_process(COMMAND ${ASTRAL_CLI} ${input} --json --jobs=${jobs}
                            ${stats_flag}
                    OUTPUT_VARIABLE par_actual
                    ERROR_VARIABLE par_stderr
                    RESULT_VARIABLE par_rc)
    if(NOT par_rc EQUAL 0)
      message(SEND_ERROR
          "[${case}] astral-cli --jobs=${jobs} exited with "
          "${par_rc}:\n${par_stderr}")
      math(EXPR NFAILED "${NFAILED}+1")
      continue()
    endif()
    normalize_report("${par_actual}" par_actual)
    if(NOT par_actual STREQUAL actual)
      set(tag ${case}.jobs${jobs})
      file(WRITE ${OUT_DIR}/${tag}.actual.json "${par_actual}")
      message(SEND_ERROR
          "[${case}] --jobs=${jobs} report differs from --jobs=1 "
          "(determinism violation)\n"
          "actual saved to ${OUT_DIR}/${tag}.actual.json")
      math(EXPR NFAILED "${NFAILED}+1")
    endif()
    if(stats_flag AND DEFINED LIVENESS_${case})
      set(stat ${LIVENESS_${case}})
      string(REPLACE "." "\\." stat_re "${stat}")
      string(REGEX MATCH "(^|\n)${stat_re} = ([0-9]+)" stat_line
             "${par_stderr}")
      if(NOT stat_line OR CMAKE_MATCH_2 EQUAL 0)
        message(SEND_ERROR
            "[${case}] --jobs=${jobs} never ran its parallel path "
            "(${stat} missing or 0 in --dump-stats)")
        math(EXPR NFAILED "${NFAILED}+1")
      else()
        message(STATUS "[${case}] --jobs=${jobs} ${stat} = ${CMAKE_MATCH_2}")
      endif()
    endif()
  endforeach()

  if(REGEN)
    file(WRITE ${expected_file} "${actual}")
    message(STATUS "[${case}] regenerated ${expected_file}")
    continue()
  endif()

  if(NOT EXISTS ${expected_file})
    message(SEND_ERROR "[${case}] missing expectation ${expected_file} "
                       "(run with -DREGEN=1 to create)")
    math(EXPR NFAILED "${NFAILED}+1")
    continue()
  endif()

  file(READ ${expected_file} expected)
  if(NOT actual STREQUAL expected)
    file(WRITE ${OUT_DIR}/${case}.actual.json "${actual}")
    message(SEND_ERROR
        "[${case}] report drifted from ${expected_file}\n"
        "actual saved to ${OUT_DIR}/${case}.actual.json\n"
        "--- expected ---\n${expected}\n--- actual ---\n${actual}")
    math(EXPR NFAILED "${NFAILED}+1")
  else()
    message(STATUS "[${case}] ok")
  endif()
endforeach()

if(NFAILED GREATER 0)
  message(FATAL_ERROR "${NFAILED} golden case(s) failed")
endif()
