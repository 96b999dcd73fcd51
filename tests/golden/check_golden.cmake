# Rerun one jtps command and compare its run document with a golden one.
#
#   cmake -DJTPS=<jtps> -DPYTHON=<python3> -DRUN_DIFF=<tools/run_diff.py>
#         -DGOLDEN=<golden.json> -DOUT=<scratch.json> -DARGS="<args>"
#         -P check_golden.cmake
#
# ARGS is one space-separated string (the command line minus --json).
# On a mismatch run_diff.py names every field that moved.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${JTPS}" ${args} --json "${OUT}"
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jtps ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${PYTHON}" "${RUN_DIFF}" "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run document of 'jtps ${ARGS}' differs from "
                        "${GOLDEN}")
endif()
