# End-to-end artifact validity: run htp_cli with every observability sink
# enabled (multilevel pipeline, parallel inner scan) and check that both
# artifacts parse — the trace via json.load, the RunReport via json.load and
# scripts/obs_report.py validate (schema check) and render.
#
# Driven by ctest as
#   cmake -DCLI=... -DPYTHON=... -DSCRIPT=... -DWORK_DIR=... -P this_file
file(MAKE_DIRECTORY ${WORK_DIR})
set(TRACE ${WORK_DIR}/run.trace.json)
set(REPORT ${WORK_DIR}/run.report.json)

execute_process(
  COMMAND ${CLI} --circuit c2670 --height 3 --iterations 2 --multilevel
          --coarsen-threshold 300 --metric-threads 8
          --trace ${TRACE} --report ${REPORT}
  RESULT_VARIABLE cli_status)
if(NOT cli_status EQUAL 0)
  message(FATAL_ERROR "htp_cli failed with status ${cli_status}")
endif()

execute_process(
  COMMAND ${PYTHON} -c
"import json, sys
trace, report = sys.argv[1:3]
t = json.load(open(trace))
assert isinstance(t['traceEvents'], list), 'trace must carry traceEvents'
r = json.load(open(report))
counters = r['deterministic']['counters']
assert counters, 'the report must carry the run counters'
assert r['wall']['timers'], 'the report must carry the run timers'
print(f'trace {len(t[\"traceEvents\"])} events, report {len(counters)} counters')"
          ${TRACE} ${REPORT}
  RESULT_VARIABLE parse_status)
if(NOT parse_status EQUAL 0)
  message(FATAL_ERROR "artifact JSON parse failed")
endif()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} validate ${REPORT}
  RESULT_VARIABLE validate_status)
if(NOT validate_status EQUAL 0)
  message(FATAL_ERROR "obs_report.py validate rejected the report")
endif()

execute_process(
  COMMAND ${PYTHON} ${SCRIPT} render ${REPORT}
  RESULT_VARIABLE render_status OUTPUT_QUIET)
if(NOT render_status EQUAL 0)
  message(FATAL_ERROR "obs_report.py render failed")
endif()

# Negative check: the validator is strict about the top level — a report
# with an unknown extra section must be rejected, not waved through.
set(TAMPERED ${WORK_DIR}/run.tampered.report.json)
execute_process(
  COMMAND ${PYTHON} -c
"import json, sys
doc = json.load(open(sys.argv[1]))
doc['bogus_section'] = {}
json.dump(doc, open(sys.argv[2], 'w'))"
          ${REPORT} ${TAMPERED}
  RESULT_VARIABLE tamper_status)
if(NOT tamper_status EQUAL 0)
  message(FATAL_ERROR "could not write tampered report")
endif()
execute_process(
  COMMAND ${PYTHON} ${SCRIPT} validate ${TAMPERED}
  RESULT_VARIABLE strict_status OUTPUT_QUIET)
if(strict_status EQUAL 0)
  message(FATAL_ERROR
          "obs_report.py validate accepted an unknown top-level section")
endif()
