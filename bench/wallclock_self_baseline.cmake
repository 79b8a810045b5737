# CTest script: `wallclock --quick --baseline=BENCH_wallclock.json`,
# run from a directory that holds a copy of the committed baseline,
# must refuse before measuring anything (the run would overwrite the
# baseline and then judge itself against itself) and leave the copy
# byte-identical. The source tree is never written.
#
#   cmake -DWALLCLOCK=<exe> -DBASELINE=<BENCH_wallclock.json>
#         -DWORK_DIR=<build-tree dir> -P wallclock_self_baseline.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${BASELINE}" DESTINATION "${WORK_DIR}")
set(copy "${WORK_DIR}/BENCH_wallclock.json")
file(SHA256 "${BASELINE}" expected)

execute_process(
    COMMAND "${WALLCLOCK}" --quick --baseline=BENCH_wallclock.json
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

file(SHA256 "${copy}" after)
if(NOT after STREQUAL expected)
    message(FATAL_ERROR "the baseline copy was rewritten:\n${out}")
endif()
if(rc EQUAL 0)
    message(FATAL_ERROR "wallclock accepted its own output file as "
        "the baseline:\n${out}")
endif()
if(NOT err MATCHES "would be overwritten before the diff")
    message(FATAL_ERROR "wallclock exited ${rc} without the refusal "
        "message:\n${err}")
endif()
