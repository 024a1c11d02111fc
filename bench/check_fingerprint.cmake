# Runs `sim_throughput --fingerprint` and fails on any byte difference
# from the checked-in golden. Usage:
#   cmake -DBIN=<sim_throughput> -DGOLDEN=<file> -P check_fingerprint.cmake
execute_process(COMMAND ${BIN} --fingerprint
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "sim_throughput --fingerprint exited ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "fingerprint battery differs from ${GOLDEN}:\n"
        "--- expected\n${expected}--- actual\n${actual}")
endif()
