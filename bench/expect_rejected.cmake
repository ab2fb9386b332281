# Runs BENCH with ARG in an empty WORK_DIR and fails unless the harness
# rejects the command line: exit status 2 and no file written.
#
#   cmake -DBENCH=<exe> -DARG=<argument> -DWORK_DIR=<dir> -P expect_rejected.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" "${ARG}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_QUIET)
file(GLOB written "${WORK_DIR}/*")
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARG}: expected exit status 2, got ${status}")
endif()
if(written)
  message(FATAL_ERROR "${BENCH} ${ARG}: rejected run wrote ${written}")
endif()
