# The report-determinism gate: two FLOW+ runs (FM refinement on, so the
# report covers the FM stage) differing only in thread counts
# (--threads 1 --metric-threads 1 vs --threads 8 --metric-threads 8) must
# produce RunReports whose deterministic sections diff clean under
# scripts/obs_report.py. This is the same contract
# tests/obs/report_test.cpp asserts in-process, exercised here through the
# real CLI artifacts and the real diff tool — what CI runs.
#
#   cmake -DCLI=... -DPYTHON=... -DSCRIPT=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
set(REPORT_SERIAL ${WORK_DIR}/serial.report.json)
set(REPORT_PARALLEL ${WORK_DIR}/parallel.report.json)

execute_process(
  COMMAND ${CLI} --circuit c1355 --height 3 --iterations 2 --refine
          --threads 1 --metric-threads 1 --report ${REPORT_SERIAL}
  RESULT_VARIABLE serial_status)
if(NOT serial_status EQUAL 0)
  message(FATAL_ERROR "serial htp_cli run failed")
endif()

execute_process(
  COMMAND ${CLI} --circuit c1355 --height 3 --iterations 2 --refine
          --threads 8 --metric-threads 8 --report ${REPORT_PARALLEL}
  RESULT_VARIABLE parallel_status)
if(NOT parallel_status EQUAL 0)
  message(FATAL_ERROR "parallel htp_cli run failed")
endif()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} diff ${REPORT_SERIAL} ${REPORT_PARALLEL}
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR
          "deterministic report sections diverged across thread counts")
endif()
