# Runs CMD (a ;-list: program and arguments) and fails unless it exits
# with code EXPECT. Used by the command-line exit-code tests:
#   cmake -DCMD=<prog;args...> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit code ${EXPECT}, got ${rc}\n${err}")
endif()
message(STATUS "exit code ${rc}: ${err}")
