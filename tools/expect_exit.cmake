# Runs a command and fails unless it exits with exactly code EXPECT.
# WILL_FAIL would also pass a crash; a program killed by a signal has
# no exit code, so it fails here. Usage:
#   cmake -DEXPECT=<code> -P expect_exit.cmake -- <program> [args...]
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(DEFINED command)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(command "")
    endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
    OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL EXPECT)
    message(FATAL_ERROR "expected exit ${EXPECT}, got '${status}' from "
        "${command}\n--- stdout\n${out}--- stderr\n${err}")
endif()
