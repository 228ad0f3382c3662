# CTest driver for the campaign figure-drift gate. Invoked as
#
#   cmake -DMTP_CAMPAIGN=<path> -DMTP_REPORT=<path> -DDATA_DIR=<path>
#         -DWORK_DIR=<path> -P run_campaign_gate.cmake
#
# Exercises the one-command reproduction pipeline end to end: runs the
# reduced (--smoke) campaign, checks the manifest summary renders, and
# gates the fresh manifest against the checked-in golden snapshot in
# tests/data/. A deliberately incomplete campaign must trip the gate.

foreach(var MTP_CAMPAIGN MTP_REPORT DATA_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} must be defined")
    endif()
endforeach()

set(GOLDEN "${DATA_DIR}/golden_campaign_smoke.json")
set(FRESH "${WORK_DIR}/campaign_gate_fresh.json")
set(PARTIAL "${WORK_DIR}/campaign_gate_partial.json")

function(run_step expect_status)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status)
    if(NOT status EQUAL ${expect_status})
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR
            "'${cmd}' exited ${status}, expected ${expect_status}")
    endif()
endfunction()

# A refused --only list: exit 1, and one stderr line naming the
# problem. The list is one quoted argument, so "" reaches the program.
function(only_refused list named)
    execute_process(COMMAND ${MTP_CAMPAIGN} --smoke --quiet
        --skip-volatile --only "${list}" --out ${PARTIAL}
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT status EQUAL 1)
        message(FATAL_ERROR "--only '${list}' exited ${status}, expected 1")
    endif()
    if(NOT err MATCHES "^fatal: [^\n]*${named}[^\n]*\n$")
        message(FATAL_ERROR "--only '${list}' did not print one line "
            "naming '${named}':\n${err}")
    endif()
endfunction()

# 1. The reduced campaign: every deterministic figure at 1/64 scale on
#    a class-covering benchmark subset. --skip-volatile keeps the
#    wall-clock harnesses out of a shared CI machine's test run.
run_step(0 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --out ${FRESH})

# 2. The manifest summary must render from real output.
run_step(0 ${MTP_REPORT} campaign show ${FRESH})

# 3. The fresh manifest must match the checked-in golden snapshot.
#    Simulated cycle counts are bit-identical everywhere, so the 5%
#    relative tolerance only absorbs floating-point ratio noise across
#    compilers; real figure drift is far larger (see the unit tests).
run_step(0 ${MTP_REPORT} campaign diff ${GOLDEN} ${FRESH}
    --gate --tol-rel 5)

# 4. Without --gate, drift reports but does not fail ... The partial
#    campaign also writes a host profile with the watchdog armed, the
#    same two rows as mtp-sim's, and mtp-report renders it.
set(HOST_PROFILE ${WORK_DIR}/campaign_gate.host.jsonl)
file(REMOVE ${HOST_PROFILE})
run_step(0 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --only tab03_characteristics --out ${PARTIAL}
    --host-profile ${HOST_PROFILE} --watchdog-sec 120)
run_step(0 ${MTP_REPORT} host ${HOST_PROFILE})
run_step(0 ${MTP_REPORT} campaign diff ${GOLDEN} ${PARTIAL})

# 5. ... and with --gate an incomplete campaign must trip it.
run_step(1 ${MTP_REPORT} campaign diff ${GOLDEN} ${PARTIAL} --gate)

# 6. A partial campaign without --out is refused before it simulates,
#    so it can never overwrite the default BENCH_campaign.json.
run_step(1 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --only tab03_characteristics)

# 7. --host-profile-out is an unknown flag (--host-profile takes the
#    FILE) and the watchdog needs a positive deadline. A figure list
#    that names a figure twice, is empty or names an unknown figure is
#    refused too. All exit 1 before anything simulates.
run_step(1 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --only tab03_characteristics --out ${PARTIAL}
    --host-profile-out ${HOST_PROFILE})
run_step(1 ${MTP_CAMPAIGN} --smoke --quiet --skip-volatile
    --only tab03_characteristics --out ${PARTIAL} --watchdog-sec 0)
only_refused("tab02_config,tab02_config" "tab02_config")
only_refused("" "--only")
only_refused("nosuch" "nosuch")
