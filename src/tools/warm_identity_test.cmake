# The empty-delta bit-identity gate (docs/incremental.md): a cold run
# emits its warm-start state; resuming from that state with an empty delta
# must reproduce the cold partition byte for byte, and two warm resumes
# differing only in thread knobs (threads x metric-threads) must produce
# RunReports whose deterministic sections diff clean under
# scripts/obs_report.py. This is the CLI-artifact form of the contract
# tests/incremental/warm_start_property_test.cpp asserts in-process.
#
#   cmake -DCLI=... -DPYTHON=... -DSCRIPT=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
set(COLD_PART ${WORK_DIR}/cold.part)
set(COLD_WARM ${WORK_DIR}/cold.warm)
set(EMPTY_DELTA ${WORK_DIR}/empty.delta)
file(WRITE ${EMPTY_DELTA} "htp-delta v1\n# no edits\n")

execute_process(
  COMMAND ${CLI} --circuit c1355 --height 3 --iterations 1
          --out ${COLD_PART} --warm-out ${COLD_WARM}
  RESULT_VARIABLE cold_status)
if(NOT cold_status EQUAL 0)
  message(FATAL_ERROR "cold htp_cli run failed")
endif()

# Two warm resumes across the knob matrix; ECO results are bit-identical
# across threads x metric-threads.
execute_process(
  COMMAND ${CLI} --circuit c1355 --height 3 --iterations 1
          --warm-start ${COLD_WARM} --delta ${EMPTY_DELTA}
          --threads 1 --metric-threads 1
          --out ${WORK_DIR}/warm1.part --report ${WORK_DIR}/warm1.report.json
  RESULT_VARIABLE warm1_status)
if(NOT warm1_status EQUAL 0)
  message(FATAL_ERROR "first warm htp_cli resume failed")
endif()
execute_process(
  COMMAND ${CLI} --circuit c1355 --height 3 --iterations 1
          --warm-start ${COLD_WARM} --delta ${EMPTY_DELTA}
          --threads 4 --metric-threads 3
          --out ${WORK_DIR}/warm2.part --report ${WORK_DIR}/warm2.report.json
  RESULT_VARIABLE warm2_status)
if(NOT warm2_status EQUAL 0)
  message(FATAL_ERROR "second warm htp_cli resume failed")
endif()

foreach(warm_part warm1.part warm2.part)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${COLD_PART}
            ${WORK_DIR}/${warm_part}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "empty-delta warm resume ${warm_part} is not byte-identical to "
            "the cold partition")
  endif()
endforeach()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} diff ${WORK_DIR}/warm1.report.json
          ${WORK_DIR}/warm2.report.json
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR
          "warm-resume deterministic report sections diverged across "
          "thread knobs")
endif()
