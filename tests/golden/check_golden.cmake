# Rerun one jtps command, or one bench, and compare its run document
# with a golden one.
#
#   cmake -DJTPS=<jtps> -DARGS="<args>" -DOUT=<scratch.json>
#         -DPYTHON=<python3> -DRUN_DIFF=<tools/run_diff.py>
#         -DGOLDEN=<golden.json> -P check_golden.cmake
#
#   cmake -DBENCH=<bench_x> -DOUT=<scratch dir>
#         -DPYTHON=... -DRUN_DIFF=... -DGOLDEN=<BENCH_x.json> -P ...
#
# ARGS is one space-separated string (the command line minus --json).
# A bench runs with JTPS_BENCH_JSON=OUT and writes OUT/BENCH_x.json,
# which must carry the golden file's name. On a mismatch run_diff.py
# names every field that moved.

if(DEFINED BENCH)
    get_filename_component(doc_name "${GOLDEN}" NAME)
    set(doc "${OUT}/${doc_name}")
    set(what "${BENCH}")
    file(REMOVE "${doc}")
    set(ENV{JTPS_BENCH_JSON} "${OUT}")
    execute_process(COMMAND "${BENCH}" OUTPUT_QUIET RESULT_VARIABLE rc)
else()
    set(doc "${OUT}")
    set(what "jtps ${ARGS}")
    separate_arguments(args UNIX_COMMAND "${ARGS}")
    execute_process(COMMAND "${JTPS}" ${args} --json "${OUT}"
                    OUTPUT_QUIET RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} exited with ${rc}")
endif()
execute_process(COMMAND "${PYTHON}" "${RUN_DIFF}" "${GOLDEN}" "${doc}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run document of '${what}' differs from "
                        "${GOLDEN}")
endif()
