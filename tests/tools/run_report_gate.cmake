# CTest driver for the mtp-report regression gate. Invoked as
#
#   cmake -DMTP_SIM=<path> -DMTP_REPORT=<path> -DDATA_DIR=<path>
#         -DWORK_DIR=<path> -P run_report_gate.cmake
#
# Exercises the full artifact pipeline end to end: re-simulates the
# golden workload, checks the report modes run clean on real inputs,
# gates the fresh run against the checked-in golden snapshot, and
# verifies a known-regressed snapshot actually trips the gate. It also
# checks that bad command lines are refused with one line naming the
# problem (exit 1 for mtp-sim; exit 2 for mtp-report, whose exit 1
# means a regression) and that a host profile renders.

foreach(var MTP_SIM MTP_REPORT DATA_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} must be defined")
    endif()
endforeach()

set(GOLDEN "${DATA_DIR}/golden_stream_base.json")
set(MTHWP "${DATA_DIR}/golden_stream_mthwp.json")
set(REGRESSED "${DATA_DIR}/golden_stream_regressed.json")

function(run_step expect_status)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR
            "'${cmd}' exited ${status}, expected ${expect_status}")
    endif()
endfunction()

# A refused command line: exit status, and one stderr line matching
# the regex that names the problem.
function(run_refused expect_status named)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
        OUTPUT_QUIET ERROR_VARIABLE err)
    string(JOIN " " cmd ${ARGN})
    if(NOT status EQUAL ${expect_status})
        message(FATAL_ERROR
            "'${cmd}' exited ${status}, expected ${expect_status}")
    endif()
    if(NOT err MATCHES "^fatal: [^\n]*${named}[^\n]*\n$")
        message(FATAL_ERROR
            "'${cmd}' did not print one line naming '${named}':\n${err}")
    endif()
endfunction()

# 1. Regenerate the golden workload with the current simulator. The
#    simulator is deterministic, so any drift shows up in the gate.
#    The .json extension selects the JSON dump.
run_step(0 ${MTP_SIM} --bench stream --scale 64 --quiet
    --stats ${WORK_DIR}/report_gate_fresh.json
    --sample-period 4096 --events ${WORK_DIR}/report_gate_fresh.jsonl
    numCores=2 dramChannels=2)

# 2. Report modes must run clean on real artifacts. The JSONL summary
#    counts the event records only, not the hist and schema records.
execute_process(COMMAND ${MTP_REPORT} show ${GOLDEN} ${MTHWP}
    --jsonl ${WORK_DIR}/report_gate_fresh.jsonl
    RESULT_VARIABLE status OUTPUT_VARIABLE shown)
file(STRINGS ${WORK_DIR}/report_gate_fresh.jsonl event_lines
    REGEX "^{\"t\":\"event\"")
list(LENGTH event_lines events)
if(NOT status EQUAL 0 OR NOT shown MATCHES ", ${events} events\n")
    message(FATAL_ERROR
        "'mtp-report show --jsonl' exited ${status} or did not count "
        "the ${events} event records:\n${shown}")
endif()
run_step(0 ${MTP_REPORT} compare ${GOLDEN} ${MTHWP})

# 3. The golden snapshots carry no sim.sched.* counters, so only a
#    fresh run renders show's scheduler table.
execute_process(COMMAND ${MTP_REPORT} show ${WORK_DIR}/report_gate_fresh.json
    RESULT_VARIABLE status OUTPUT_VARIABLE shown)
if(NOT status EQUAL 0 OR NOT shown MATCHES "skip success")
    message(FATAL_ERROR
        "'mtp-report show' of a fresh run exited ${status} or printed "
        "no scheduler table:\n${shown}")
endif()

# 4. The fresh run must match the checked-in snapshot within the gate.
run_step(0 ${MTP_REPORT} diff ${GOLDEN}
    ${WORK_DIR}/report_gate_fresh.json --gate 5)

# 5. A known regression (3x memory latency) must trip the gate ...
run_step(1 ${MTP_REPORT} diff ${GOLDEN} ${REGRESSED} --gate 5)

# 6. ... and pass when the gate is wide enough to absorb it.
run_step(0 ${MTP_REPORT} diff ${GOLDEN} ${REGRESSED} --gate 50)

# 7. Bad mtp-sim command lines exit 1 before simulating: unknown flags,
#    among them --csv and --json (the --stats extension picks the
#    format), an unknown benchmark and a time series that would have
#    no samples.
set(SIM ${MTP_SIM} --bench stream --scale 64 --quiet)
run_refused(1 "--bogus" ${SIM} --bogus)
run_refused(1 "nosuch" ${MTP_SIM} --bench nosuch --scale 64 --quiet)
run_refused(1 "--csv" ${SIM} --stats ${WORK_DIR}/report_gate_bad.csv --csv)
run_refused(1 "--json" ${SIM} --stats ${WORK_DIR}/report_gate_bad.json --json)
run_refused(1 "--sample-period" ${SIM}
    --timeseries ${WORK_DIR}/report_gate_bad_series.csv)

# 8. mtp-report usage errors exit 2, never 1 (a regression).
run_refused(2 "show" ${MTP_REPORT} show)
run_refused(2 "--gate" ${MTP_REPORT} diff ${GOLDEN} ${REGRESSED} --gate)

# 9. A host profile with the watchdog armed, rendered by mtp-report.
set(HOST_PROFILE ${WORK_DIR}/report_gate.host.jsonl)
file(REMOVE ${HOST_PROFILE})
run_step(0 ${SIM} --host-profile ${HOST_PROFILE} --watchdog-sec 120
    numCores=2 dramChannels=2)
run_step(0 ${MTP_REPORT} host ${HOST_PROFILE})
